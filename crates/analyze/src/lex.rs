//! The lexical substrate of the source analyzer ([`crate::sound`]).
//!
//! Every pass works on a *masked* view of a Rust source file: comments,
//! string literals, char literals and raw strings are replaced by spaces —
//! byte offsets and line structure preserved — so a scan never trips over
//! `"call .unwrap() and panic!()"` inside a string. The masking pass also
//! harvests the one escape-comment namespace, for L- and S-codes alike:
//!
//! * `// sound: allow(L004): INVARIANT-NAME — why` on the offending line
//!   or alone above it, or `// sound: allow-file(S005): NAME — why` for a
//!   whole file. An escape **must** carry a *named invariant* (an
//!   upper-case `NAME-LIKE-THIS` token right after the code) or it
//!   suppresses nothing; the report lists every escape with its invariant,
//!   so the full trusted base is auditable.
//!
//! `#[cfg(test)]` modules and `#[test]` functions are tracked as byte
//! ranges; every pass exempts them — the policies protect request and
//! training paths, not assertions.

/// One `// sound: allow(...)` escape. It suppresses only when
/// [`SoundAllow::invariant`] parsed to a name; a nameless escape is
/// reported as malformed (`S000`).
#[derive(Debug, Clone)]
pub(crate) struct SoundAllow {
    /// The code the escape targets.
    pub code: String,
    /// 0-based line the escape applies to (`usize::MAX` for file-level).
    pub line: usize,
    /// Whole-file (`allow-file`) escape.
    pub file_level: bool,
    /// The named invariant (`UPPER-CASE-TOKEN`) justifying the escape, when
    /// present and well-formed.
    pub invariant: Option<String>,
    /// 0-based line of the comment itself (for malformed-escape reports).
    pub at_line: usize,
}

/// The masked source: comments and literals replaced by spaces (newlines
/// kept), the escapes, and the byte ranges of test-only code.
pub(crate) struct MaskedSource {
    pub text: Vec<u8>,
    pub line_starts: Vec<usize>,
    pub sound_allows: Vec<SoundAllow>,
    pub test_ranges: Vec<(usize, usize)>,
}

impl MaskedSource {
    /// 0-based line containing `offset`.
    pub(crate) fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        }
    }

    pub(crate) fn in_test(&self, offset: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| s <= offset && offset < e)
    }

    /// The masked text of a 0-based line (without its trailing newline).
    pub(crate) fn line_text(&self, line: usize) -> &str {
        let start = match self.line_starts.get(line) {
            Some(&s) => s,
            None => return "",
        };
        let end = self
            .line_starts
            .get(line + 1)
            .copied()
            .unwrap_or(self.text.len());
        std::str::from_utf8(&self.text[start..end])
            .unwrap_or("")
            .trim_end_matches('\n')
    }

    /// The well-formed escape covering `line` for `code`, if any.
    /// Escapes without a named invariant never match — the caller reports
    /// them as malformed instead.
    pub(crate) fn sound_permits(&self, line: usize, code: &str) -> Option<&SoundAllow> {
        self.sound_allows
            .iter()
            .find(|a| a.invariant.is_some() && a.code == code && (a.file_level || a.line == line))
    }

    /// Escapes that failed to parse a named invariant (audited as
    /// deny-level findings: an unnamed escape is an unreviewable one).
    pub(crate) fn malformed_sound_allows(&self) -> impl Iterator<Item = &SoundAllow> {
        self.sound_allows.iter().filter(|a| a.invariant.is_none())
    }
}

/// Masks comments, strings and char literals out of `src`, harvesting the
/// escape comments along the way.
pub(crate) fn mask(src: &str) -> MaskedSource {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut sound_allows: Vec<SoundAllow> = Vec::new();
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |offset: usize| match line_starts.binary_search(&offset) {
        Ok(l) => l,
        Err(l) => l - 1,
    };

    let blank = |out: &mut [u8], range: std::ops::Range<usize>| {
        for i in range {
            if out[i] != b'\n' {
                out[i] = b' ';
            }
        }
    };

    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| i + p);
                let comment = &src[i..end];
                let line = line_of(i);
                // A comment alone on its line annotates the next line;
                // a trailing comment annotates its own.
                let standalone = src[line_starts[line]..i].trim().is_empty();
                harvest_sound_allows(comment, line, standalone, &mut sound_allows);
                blank(&mut out, i..end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i..j);
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let j = skip_raw_string(bytes, i);
                blank(&mut out, i..j);
                i = j;
            }
            b'"' => {
                let j = skip_string(bytes, i);
                blank(&mut out, i..j);
                i = j;
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'a'`, `'\n'`):
                // a lifetime's ident is not followed by a closing quote.
                let next = bytes.get(i + 1).copied().unwrap_or(0);
                let is_lifetime = (next.is_ascii_alphabetic() || next == b'_')
                    && bytes.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    i += 2;
                } else {
                    let j = skip_char_literal(bytes, i);
                    blank(&mut out, i..j);
                    i = j;
                }
            }
            _ => i += 1,
        }
    }

    // Resolve standalone escapes to the next line that carries code
    // (in the masked text, comment continuation lines are all blank), so a
    // multi-line invariant comment still annotates the statement below it.
    let masked_line_blank = |l: usize| {
        let start = line_starts[l];
        let end = line_starts.get(l + 1).copied().unwrap_or(out.len());
        out[start..end].iter().all(|&b| b == b' ' || b == b'\n')
    };
    let resolve = |line: &mut usize| {
        if *line >= line_starts.len() {
            return;
        }
        if masked_line_blank(*line) {
            let mut l = *line;
            while l + 1 < line_starts.len() && masked_line_blank(l) {
                l += 1;
            }
            *line = l;
        }
    };
    for a in sound_allows.iter_mut() {
        if !a.file_level {
            resolve(&mut a.line);
        }
    }

    let test_ranges = find_test_ranges(&out);
    MaskedSource {
        text: out,
        line_starts,
        sound_allows,
        test_ranges,
    }
}

/// Parses the named invariant after `// sound: allow(CODE): NAME — why`.
/// A name is an upper-case dashed token (`SEND-UNBOUNDED`,
/// `POOL-LOCKS-TOLERATE-POISON`), at least three characters.
fn parse_invariant(rest: &str) -> Option<String> {
    let rest = rest.trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '-')
        .collect();
    if name.len() >= 3 && name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        Some(name)
    } else {
        None
    }
}

fn harvest_sound_allows(
    comment: &str,
    line: usize,
    standalone: bool,
    allows: &mut Vec<SoundAllow>,
) {
    // An escape must be the comment's *leading* content — doc comments
    // discussing the grammar (`…carry `// sound: allow(S005)` escapes…`)
    // must not harvest as escapes of the analyzer's own sources.
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    for (marker, file_level) in [("sound: allow-file(", true), ("sound: allow(", false)] {
        if !body.starts_with(marker) {
            continue;
        }
        let rest = &body[marker.len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let invariant = parse_invariant(&rest[close + 1..]);
        for code in rest[..close].split(',') {
            let code = code.trim().to_string();
            if code.is_empty() {
                continue;
            }
            let target = if file_level {
                usize::MAX
            } else if standalone {
                line + 1
            } else {
                line
            };
            allows.push(SoundAllow {
                code,
                line: target,
                file_level,
                invariant: invariant.clone(),
                at_line: line,
            });
        }
        return; // one marker per comment
    }
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"...", r#"..."#, br"...", b"..." is handled by `"` unless raw.
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    // Reject identifiers like `robust` — require the quote right after.
    bytes.get(j) == Some(&b'"')
        && !ident_char(bytes.get(i.wrapping_sub(1)).copied().unwrap_or(b' '))
}

fn skip_raw_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < bytes.len() {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    j
}

fn skip_string(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

fn skip_char_literal(bytes: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < bytes.len() && j < i + 12 {
        match bytes[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

pub(crate) fn ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte ranges of `#[cfg(test)]` / `#[test]` items in the masked text: from
/// the attribute to the close of the following brace-balanced block.
fn find_test_ranges(masked: &[u8]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for pat in [b"#[cfg(test)]".as_slice(), b"#[test]".as_slice()] {
        let mut from = 0usize;
        while let Some(pos) = find_from(masked, pat, from) {
            from = pos + pat.len();
            let Some(open) = masked[from..].iter().position(|&b| b == b'{') else {
                continue;
            };
            let open = from + open;
            let mut depth = 0usize;
            let mut end = masked.len();
            for (k, &b) in masked.iter().enumerate().skip(open) {
                match b {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = k + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            ranges.push((pos, end));
            from = end;
        }
    }
    ranges
}

pub(crate) fn find_from(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Byte range `open..close+1` of the balanced-paren region starting at the
/// `(` at `open` (masked text). Returns `None` when unbalanced.
pub(crate) fn paren_range(masked: &[u8], open: usize) -> Option<(usize, usize)> {
    if masked.get(open) != Some(&b'(') {
        return None;
    }
    let mut depth = 0usize;
    for (k, &b) in masked.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte range `open..close+1` of the balanced-brace block starting at the
/// `{` at `open` (masked text). Unbalanced blocks run to end of file.
pub(crate) fn brace_range(masked: &[u8], open: usize) -> (usize, usize) {
    let mut depth = 0usize;
    for (k, &b) in masked.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return (open, k + 1);
                }
            }
            _ => {}
        }
    }
    (open, masked.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_allow_requires_a_named_invariant() {
        let src = "fn f() {\n    x.send(y); // sound: allow(S002): SEND-UNBOUNDED — ok\n    \
                   z.send(w); // sound: allow(S002): lowercase reason only\n}\n";
        let m = mask(src);
        assert!(m.sound_permits(1, "S002").is_some());
        assert!(m.sound_permits(2, "S002").is_none());
        let malformed: Vec<_> = m.malformed_sound_allows().collect();
        assert_eq!(malformed.len(), 1);
        assert_eq!(malformed[0].at_line, 2);
    }

    #[test]
    fn sound_allow_file_covers_every_line() {
        let src = "// sound: allow-file(S005): BENCH-LATENCY-IS-WALLCLOCK — timing is the\n\
                   // payload here\nfn f() {}\n";
        let m = mask(src);
        assert!(m.sound_permits(0, "S005").is_some());
        assert!(m.sound_permits(99, "S005").is_some());
        assert!(m.sound_permits(0, "S001").is_none());
    }

    #[test]
    fn standalone_sound_allow_annotates_next_code_line() {
        let src =
            "fn f() {\n    // sound: allow(S001): LOCK-ORDER-BY-RANK — ranked acquisition\n    \
                   a.lock();\n}\n";
        let m = mask(src);
        assert!(m.sound_permits(2, "S001").is_some(), "next code line");
        assert!(m.sound_permits(1, "S001").is_none(), "not the comment line");
    }

    #[test]
    fn invariant_name_parses_dashes_and_digits() {
        assert_eq!(
            parse_invariant(": PARITY-FLEET-V2 rest"),
            Some("PARITY-FLEET-V2".into())
        );
        assert_eq!(parse_invariant(": x-lower"), None);
        assert_eq!(parse_invariant("no colon"), None);
        assert_eq!(parse_invariant(": AB"), None, "too short");
    }

    #[test]
    fn paren_and_brace_ranges_balance() {
        let m = mask("call(a, (b), c) { x { y } }");
        let (o, c) = paren_range(&m.text, 4).unwrap();
        assert_eq!((o, c), (4, 15));
        let (o, c) = brace_range(&m.text, 16);
        assert_eq!((o, c), (16, 27));
    }
}
