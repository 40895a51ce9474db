//! Tensor persistence: the tensor lines every record carries, and the
//! weights record built from them.
//!
//! A tensor is two lines of a record payload (`stgnn_faults::fsio`):
//! `name dim0 dim1 …`, then its row-major values as IEEE-754 bit patterns
//! in 8 hex digits. [`push_tensor`] writes them and [`parse_tensor`] reads
//! them back bit for bit; training checkpoints store parameters, Adam
//! moments and the best snapshot this way.
//!
//! A model's weights are the record `stgnn-params v2`, whose payload is a
//! training checkpoint's `params N` section:
//!
//! ```text
//! stgnn-params v2
//! crc32 <8 hex> len <payload bytes>
//! params <count>
//! <name> <dim0> <dim1> …
//! <hex bit words> (row-major, one line)
//! …
//! ```
//!
//! [`load_params`] matches parameters **by name** against an
//! already-constructed `ParamSet` (build the model with the same
//! configuration first), and checks the whole record before it sets the
//! first value: every model parameter must appear exactly once, with its
//! shape, and every value must be finite. A damaged record — a flipped
//! byte fails the CRC-32, an `stgnn-params v1` stream is version skew —
//! leaves the model untouched.
//!
//! Non-finite values (NaN/±Inf) are rejected by policy: weights are only
//! ever loaded to run inference or resume training, and in both cases a
//! non-finite weight is unrecoverable corruption that would otherwise
//! surface as silently-poisoned predictions far from its cause.

use crate::autograd::ParamSet;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use stgnn_faults::fsio::{decimal, f32_bits, frame, unframe, Fields, RecordError};

const MAGIC: &str = "stgnn-params v2";

/// Appends a tensor's two lines: `name dim…`, then its values as hex bit
/// words.
pub fn push_tensor(out: &mut String, name: &str, t: &Tensor) {
    out.push_str(name);
    for d in t.shape().dims() {
        let _ = write!(out, " {d}");
    }
    out.push('\n');
    out.reserve(t.len() * 9);
    for (i, v) in t.data().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:08x}", v.to_bits());
    }
    out.push('\n');
}

/// Reads the two lines [`push_tensor`] writes; `what` names the tensor in
/// errors. The dims multiply with checked arithmetic, and the values
/// present must fill them exactly.
pub fn parse_tensor(r: &mut Fields<'_>, what: &str) -> Result<(String, Tensor), RecordError> {
    let bad = |msg: String| RecordError::Malformed(format!("{what}: {msg}"));
    let header = r.next_line(what)?;
    let mut words = header.split_whitespace();
    let name = words
        .next()
        .ok_or_else(|| bad("empty tensor header".into()))?;
    let dims: Vec<usize> = words
        .map(decimal)
        .collect::<Option<_>>()
        .ok_or_else(|| bad(format!("bad dims in {header:?}")))?;
    let len = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| bad(format!("dims {dims:?} overflow an element count")))?;
    let data: Vec<f32> = r
        .next_line(what)?
        .split_whitespace()
        .map(f32_bits)
        .collect::<Option<_>>()
        .ok_or_else(|| bad("bad data word".into()))?;
    if data.len() != len {
        return Err(bad(format!(
            "dims {dims:?} hold {len} values, found {}",
            data.len()
        )));
    }
    let tensor = Tensor::from_vec(Shape::from_dims(&dims), data).map_err(|e| bad(e.to_string()))?;
    Ok((name.to_string(), tensor))
}

/// Appends a `params N` section: the count, then each named tensor.
pub fn push_params<'a>(out: &mut String, params: impl ExactSizeIterator<Item = (&'a str, Tensor)>) {
    let _ = writeln!(out, "params {}", params.len());
    for (name, t) in params {
        push_tensor(out, name, &t);
    }
}

/// Reads the section [`push_params`] writes.
pub fn parse_params(r: &mut Fields<'_>) -> Result<Vec<(String, Tensor)>, RecordError> {
    let n: usize = r.value("params", decimal)?;
    let mut params = Vec::new();
    for i in 0..n {
        params.push(parse_tensor(r, &format!("param[{i}]"))?);
    }
    Ok(params)
}

/// Writes every parameter of `params` to `writer` as one `stgnn-params v2`
/// record.
pub fn save_params<W: Write>(params: &ParamSet, mut writer: W) -> io::Result<()> {
    stgnn_faults::failpoint!("serialize::write", io);
    let mut payload = String::new();
    push_params(
        &mut payload,
        params.params().iter().map(|p| (p.name(), p.value())),
    );
    frame(&mut writer, MAGIC, payload.as_bytes())?;
    writer.flush()
}

/// Loads an `stgnn-params v2` record into `params`, matching by name.
/// Every parameter of `params` must appear in the record exactly once,
/// with its shape and finite values, or nothing is set.
pub fn load_params(params: &ParamSet, bytes: &[u8]) -> io::Result<()> {
    stgnn_faults::failpoint!("serialize::read", io);
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let stored = read_record(bytes).map_err(|e| invalid(e.to_string()))?;
    let model = params.params();
    let mut by_name: HashMap<&str, &Tensor> = stored.iter().map(|(n, t)| (n.as_str(), t)).collect();
    if stored.len() != model.len() || by_name.len() != stored.len() {
        return Err(invalid(format!(
            "stream has {} params ({} distinct names), model has {}",
            stored.len(),
            by_name.len(),
            model.len()
        )));
    }
    let mut values = Vec::with_capacity(model.len());
    for p in model {
        let name = p.name();
        let t = by_name
            .remove(name)
            .ok_or_else(|| invalid(format!("model parameter {name} is not in the stream")))?;
        if !p.with_value(|v| v.shape() == t.shape()) {
            return Err(invalid(format!(
                "shape mismatch for {name}: stream {} vs model {}",
                t.shape(),
                p.value().shape()
            )));
        }
        if let Some(v) = t.data().iter().find(|v| !v.is_finite()) {
            return Err(invalid(format!("non-finite value {v} in {name}")));
        }
        values.push(t.clone());
    }
    for (p, t) in model.iter().zip(values) {
        p.set_value(t);
    }
    Ok(())
}

fn read_record(bytes: &[u8]) -> Result<Vec<(String, Tensor)>, RecordError> {
    let mut r = unframe(bytes, MAGIC)?;
    let stored = parse_params(&mut r)?;
    r.finish()?;
    Ok(stored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::xavier_uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(seed: u64) -> ParamSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamSet::new();
        ps.add("layer.w", xavier_uniform(&mut rng, 3, 4));
        ps.add("layer.b", Tensor::from_rows(&[&[0.5, -1.25e-7, 3.0]]));
        ps
    }

    /// `payload` as an `stgnn-params v2` record with a valid CRC and
    /// length, so the loader gets past the frame to the payload parser.
    fn framed(payload: &str) -> Vec<u8> {
        let mut bytes = Vec::new();
        frame(&mut bytes, MAGIC, payload.as_bytes()).unwrap();
        bytes
    }

    /// The payload of `params`' weights record: what follows the magic
    /// and crc32 header lines.
    fn payload_of(ps: &ParamSet) -> String {
        let mut buf = Vec::new();
        save_params(ps, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        text.splitn(3, '\n').nth(2).unwrap().to_string()
    }

    fn bits(ps: &ParamSet) -> Vec<Vec<u32>> {
        ps.params()
            .iter()
            .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn round_trip_is_exact() {
        let original = params(1);
        let mut buf = Vec::new();
        save_params(&original, &mut buf).unwrap();

        let target = params(2); // different values, same structure
        assert!(!target.params()[0]
            .value()
            .approx_eq(&original.params()[0].value(), 1e-9));
        load_params(&target, buf.as_slice()).unwrap();
        assert_eq!(bits(&original), bits(&target));
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let ps = params(1);
        assert!(load_params(&ps, "garbage\n".as_bytes()).is_err());
        assert!(load_params(&ps, "".as_bytes()).is_err());
        // A v1 stream is a typed version-skew error.
        let err = load_params(&ps, "stgnn-params v1\n2\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version skew"), "{err}");

        let mut buf = Vec::new();
        save_params(&ps, &mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        let err = load_params(&params(1), truncated).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn flipped_value_character_is_a_checksum_mismatch() {
        let ps = params(1);
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).unwrap();
        // The last value word of `layer.b` (3.0 = 40400000) becomes 40400001.
        let at = buf.len() - 2;
        assert_eq!(buf[at], b'0');
        buf[at] = b'1';
        let target = params(2);
        let before = bits(&target);
        let err = load_params(&target, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert_eq!(before, bits(&target));
    }

    #[test]
    fn truncation_at_every_line_boundary_is_rejected() {
        let text = payload_of(&params(1));
        let lines: Vec<&str> = text.lines().collect();
        // Dropping any suffix of lines (except dropping nothing) must fail:
        // the payload promises `count` params and delivers fewer.
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(
                load_params(&params(1), framed(&partial).as_slice()).is_err(),
                "payload truncated to {keep} lines was accepted"
            );
        }
    }

    #[test]
    fn truncation_inside_a_value_row_is_rejected() {
        let text = payload_of(&params(1));
        // Cut mid-way through the first value line: the row parses but has
        // too few values for the declared shape.
        let count_end = text.find('\n').unwrap();
        let param_header_end = count_end + 1 + text[count_end + 1..].find('\n').unwrap();
        let cut = param_header_end + 20;
        assert!(load_params(&params(1), framed(&text[..cut]).as_slice()).is_err());
    }

    #[test]
    fn rejects_non_finite_values() {
        for (label, poison) in [
            ("NaN", "7fc00000"),
            ("inf", "7f800000"),
            ("-inf", "ff800000"),
        ] {
            let payload = format!(
                "params 2\nlayer.w 3 4\n{}\nlayer.b 1 3\n00000000 00000000 00000000\n",
                [poison; 12].join(" ")
            );
            let err = load_params(&params(1), framed(&payload).as_slice()).unwrap_err();
            assert!(
                err.to_string().contains("non-finite"),
                "{label}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn rejects_garbage_values_and_bad_counts() {
        // Unparseable value token.
        let stream = framed("params 1\nlayer.b 1 3\n00000000 huh 00000000\n");
        let mut one = ParamSet::new();
        one.add("layer.b", Tensor::zeros(Shape::matrix(1, 3)));
        assert!(load_params(&one, stream.as_slice()).is_err());
        // Wrong number of values for the declared shape.
        let short = framed("params 1\nlayer.b 1 3\n00000000 00000000\n");
        assert!(load_params(&one, short.as_slice()).is_err());
        // Unparseable parameter count.
        assert!(load_params(&one, framed("params many\n").as_slice()).is_err());
    }

    #[test]
    fn rejects_unknown_and_missing_params() {
        let mut buf = Vec::new();
        save_params(&params(1), &mut buf).unwrap();

        // A model with a different parameter name must refuse the stream.
        let mut other = ParamSet::new();
        other.add("different.w", Tensor::zeros(Shape::matrix(3, 4)));
        other.add("layer.b", Tensor::zeros(Shape::matrix(1, 3)));
        assert!(load_params(&other, buf.as_slice()).is_err());

        // A model with fewer parameters must refuse too.
        let mut fewer = ParamSet::new();
        fewer.add("layer.w", Tensor::zeros(Shape::matrix(3, 4)));
        assert!(load_params(&fewer, buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut buf = Vec::new();
        save_params(&params(1), &mut buf).unwrap();
        let mut wrong = ParamSet::new();
        wrong.add("layer.w", Tensor::zeros(Shape::matrix(4, 3))); // transposed
        wrong.add("layer.b", Tensor::zeros(Shape::matrix(1, 3)));
        assert!(load_params(&wrong, buf.as_slice()).is_err());
    }

    /// The whole record is checked before the first value is set: a record
    /// whose second parameter has the wrong shape leaves the first as it was.
    #[test]
    fn a_rejected_record_sets_no_parameter() {
        let mut target = ParamSet::new();
        target.add("a", Tensor::zeros(Shape::vector(2)));
        target.add("b", Tensor::zeros(Shape::vector(2)));
        let payload = "params 2\na 2\n3f800000 40000000\nb 3\n00000000 00000000 00000000\n";
        let err = load_params(&target, framed(payload).as_slice()).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
        assert_eq!(target.params()[0].value().data(), &[0.0, 0.0]);
        // A duplicated name is refused the same way.
        let twice = "params 2\na 2\n3f800000 40000000\na 2\n3f800000 40000000\n";
        assert!(load_params(&target, framed(twice).as_slice()).is_err());
        assert_eq!(target.params()[0].value().data(), &[0.0, 0.0]);
    }
}
