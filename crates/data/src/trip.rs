//! Trip records, the §VII-A cleansing rules, and CSV I/O.
//!
//! The paper's schema (§III-A): `{rid, s_o, s_d, t_s, t_e}` — trip id,
//! origin station, destination station, start time, end time. Timestamps are
//! minutes from the dataset epoch (midnight of day 0); a fixed epoch keeps
//! slot arithmetic exact and avoids a date-time dependency.

use crate::error::{Error, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Maximum plausible trip duration; longer trips are data errors (§VII-A).
pub const MAX_TRIP_MINUTES: i64 = 24 * 60;

/// A raw, possibly-dirty trip record as it would arrive from an operator's
/// export: stations may be missing, timestamps may be inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawTripRecord {
    /// Trip id.
    pub rid: u64,
    /// Origin station id, if recorded.
    pub origin: Option<usize>,
    /// Destination station id, if recorded.
    pub dest: Option<usize>,
    /// Pickup time, minutes from epoch.
    pub start_min: i64,
    /// Drop-off time, minutes from epoch.
    pub end_min: i64,
}

/// A validated trip record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripRecord {
    /// Trip id.
    pub rid: u64,
    /// Origin station id (`s_o`).
    pub origin: usize,
    /// Destination station id (`s_d`).
    pub dest: usize,
    /// Pickup time in minutes from epoch (`t_s`).
    pub start_min: i64,
    /// Drop-off time in minutes from epoch (`t_e`).
    pub end_min: i64,
}

impl TripRecord {
    /// Trip duration in minutes.
    pub fn duration_min(&self) -> i64 {
        self.end_min - self.start_min
    }
}

/// Counts of records dropped per cleansing rule (§VII-A).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CleansingReport {
    /// Records kept.
    pub kept: usize,
    /// Dropped: missing origin or destination station.
    pub missing_station: usize,
    /// Dropped: station id outside the registry.
    pub unknown_station: usize,
    /// Dropped: non-positive duration.
    pub non_positive_duration: usize,
    /// Dropped: duration above [`MAX_TRIP_MINUTES`].
    pub excessive_duration: usize,
    /// Dropped: negative start time (before the dataset epoch).
    pub before_epoch: usize,
}

impl CleansingReport {
    /// Total records examined.
    pub fn total(&self) -> usize {
        self.kept
            + self.missing_station
            + self.unknown_station
            + self.non_positive_duration
            + self.excessive_duration
            + self.before_epoch
    }

    /// Total records dropped.
    pub fn dropped(&self) -> usize {
        self.total() - self.kept
    }
}

/// Applies the paper's cleansing rules to raw records.
///
/// Drops trips with missing or unknown endpoints, non-positive or >24h
/// durations, and trips starting before the epoch. Returns the surviving
/// validated records and a per-rule report.
pub fn cleanse(raw: &[RawTripRecord], n_stations: usize) -> (Vec<TripRecord>, CleansingReport) {
    let mut report = CleansingReport::default();
    let mut out = Vec::with_capacity(raw.len());
    for r in raw {
        let (origin, dest) = match (r.origin, r.dest) {
            (Some(o), Some(d)) => (o, d),
            _ => {
                report.missing_station += 1;
                continue;
            }
        };
        if origin >= n_stations || dest >= n_stations {
            report.unknown_station += 1;
            continue;
        }
        if r.start_min < 0 {
            report.before_epoch += 1;
            continue;
        }
        // Compare before subtracting: `end_min` is any `i64` a file holds,
        // and only once it exceeds `start_min ≥ 0` is the difference in range.
        if r.end_min <= r.start_min {
            report.non_positive_duration += 1;
            continue;
        }
        if r.end_min - r.start_min > MAX_TRIP_MINUTES {
            report.excessive_duration += 1;
            continue;
        }
        report.kept += 1;
        out.push(TripRecord {
            rid: r.rid,
            origin,
            dest,
            start_min: r.start_min,
            end_min: r.end_min,
        });
    }
    (out, report)
}

/// Writes trips as CSV (`rid,origin,dest,start_min,end_min`) with a header.
pub fn write_csv<W: Write>(writer: W, trips: &[TripRecord]) -> Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "rid,origin,dest,start_min,end_min")?;
    for t in trips {
        writeln!(
            w,
            "{},{},{},{},{}",
            t.rid, t.origin, t.dest, t.start_min, t.end_min
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads trips from the CSV written by [`write_csv`]. Empty station fields
/// become `None` in the returned raw records so files can round-trip dirty
/// exports too.
pub fn read_csv<R: Read>(reader: R) -> Result<Vec<RawTripRecord>> {
    let mut out = Vec::new();
    for (line_no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if line_no == 0 {
            if !line.starts_with("rid,") {
                return Err(Error::Parse {
                    line: 1,
                    message: "missing header".into(),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(Error::Parse {
                line: line_no + 1,
                message: format!("expected 5 fields, got {}", fields.len()),
            });
        }
        let parse_u64 = |s: &str, what: &str| -> Result<u64> {
            s.trim().parse().map_err(|_| Error::Parse {
                line: line_no + 1,
                message: format!("bad {what}: {s:?}"),
            })
        };
        let parse_i64 = |s: &str, what: &str| -> Result<i64> {
            s.trim().parse().map_err(|_| Error::Parse {
                line: line_no + 1,
                message: format!("bad {what}: {s:?}"),
            })
        };
        let parse_opt = |s: &str, what: &str| -> Result<Option<usize>> {
            let s = s.trim();
            if s.is_empty() {
                return Ok(None);
            }
            s.parse().map(Some).map_err(|_| Error::Parse {
                line: line_no + 1,
                message: format!("bad {what}: {s:?}"),
            })
        };
        out.push(RawTripRecord {
            rid: parse_u64(fields[0], "rid")?,
            origin: parse_opt(fields[1], "origin")?,
            dest: parse_opt(fields[2], "dest")?,
            start_min: parse_i64(fields[3], "start_min")?,
            end_min: parse_i64(fields[4], "end_min")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(rid: u64, o: Option<usize>, d: Option<usize>, s: i64, e: i64) -> RawTripRecord {
        RawTripRecord {
            rid,
            origin: o,
            dest: d,
            start_min: s,
            end_min: e,
        }
    }

    #[test]
    fn cleanse_keeps_valid_trips() {
        let (trips, rep) = cleanse(&[raw(1, Some(0), Some(1), 10, 25)], 2);
        assert_eq!(trips.len(), 1);
        assert_eq!(rep.kept, 1);
        assert_eq!(rep.dropped(), 0);
        assert_eq!(trips[0].duration_min(), 15);
    }

    #[test]
    fn cleanse_drops_each_rule() {
        let rows = vec![
            raw(1, None, Some(1), 0, 10),         // missing origin
            raw(2, Some(0), None, 0, 10),         // missing dest
            raw(3, Some(9), Some(1), 0, 10),      // unknown origin
            raw(4, Some(0), Some(1), 10, 10),     // zero duration
            raw(5, Some(0), Some(1), 20, 10),     // negative duration
            raw(6, Some(0), Some(1), 0, 25 * 60), // > 24h
            raw(7, Some(0), Some(1), -5, 10),     // before epoch
            raw(8, Some(0), Some(1), 0, 30),      // good
        ];
        let (trips, rep) = cleanse(&rows, 2);
        assert_eq!(trips.len(), 1);
        assert_eq!(rep.missing_station, 2);
        assert_eq!(rep.unknown_station, 1);
        assert_eq!(rep.non_positive_duration, 2);
        assert_eq!(rep.excessive_duration, 1);
        assert_eq!(rep.before_epoch, 1);
        assert_eq!(rep.total(), 8);
        assert_eq!(rep.dropped(), 7);
    }

    #[test]
    fn hostile_end_time_is_a_non_positive_duration_not_an_overflow() {
        let (trips, rep) = cleanse(&[raw(1, Some(0), Some(1), 10, i64::MIN)], 2);
        assert!(trips.is_empty());
        assert_eq!(rep.non_positive_duration, 1);
        assert_eq!(rep.excessive_duration, 0);
        assert_eq!(rep.total(), 1);
    }

    #[test]
    fn exactly_24h_is_kept() {
        let (trips, _) = cleanse(&[raw(1, Some(0), Some(0), 0, MAX_TRIP_MINUTES)], 1);
        assert_eq!(trips.len(), 1);
    }

    #[test]
    fn csv_round_trip() {
        let trips = vec![
            TripRecord {
                rid: 1,
                origin: 0,
                dest: 3,
                start_min: 100,
                end_min: 118,
            },
            TripRecord {
                rid: 2,
                origin: 3,
                dest: 0,
                start_min: 205,
                end_min: 230,
            },
        ];
        let mut buf = Vec::new();
        write_csv(&mut buf, &trips).unwrap();
        let raw = read_csv(buf.as_slice()).unwrap();
        let (back, rep) = cleanse(&raw, 4);
        assert_eq!(back, trips);
        assert_eq!(rep.kept, 2);
    }

    #[test]
    fn csv_reads_missing_stations_as_none() {
        let text = "rid,origin,dest,start_min,end_min\n7,,2,5,20\n";
        let raw = read_csv(text.as_bytes()).unwrap();
        assert_eq!(raw[0].origin, None);
        assert_eq!(raw[0].dest, Some(2));
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(read_csv("not a header\n".as_bytes()).is_err());
        let bad_fields = "rid,origin,dest,start_min,end_min\n1,2,3\n";
        assert!(read_csv(bad_fields.as_bytes()).is_err());
        let bad_num = "rid,origin,dest,start_min,end_min\nx,1,2,3,4\n";
        assert!(read_csv(bad_num.as_bytes()).is_err());
    }

    #[test]
    fn csv_skips_blank_lines() {
        let text = "rid,origin,dest,start_min,end_min\n1,0,1,5,20\n\n";
        assert_eq!(read_csv(text.as_bytes()).unwrap().len(), 1);
    }
}
