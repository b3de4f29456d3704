//! The `.tlk` metadata sidecar.
//!
//! `tetrislock protect` splits a circuit into segment files plus a
//! metadata file holding everything the *designer* needs to recombine
//! (and that the untrusted compilers must never see): the original
//! register size and the segment→original wire maps.
//!
//! The format is deliberately trivial — line-based, self-describing.
//! A two-way split names its maps `L` and `R`:
//!
//! ```text
//! tetrislock-meta v1
//! register 5
//! source adder.qasm
//! map L 0 2
//! map L 1 4
//! map R 0 0
//! ...
//! ```
//!
//! A `k`-way split declares its segment count, so empty segments (which
//! have no `map` lines) are counted too, and names its maps `S0`, `S1`,
//! …:
//!
//! ```text
//! tetrislock-meta v1
//! register 3
//! segments 5
//! map S0 0 0
//! ...
//! ```
//!
//! Files without a `segments` line count `max(i) + 1` segments (two
//! for `L`/`R` files).

use qcir::Qubit;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Most segments a `.tlk` file may describe (and `protect` may write).
pub const MAX_SEGMENTS: usize = 1 << 12;

/// Designer-side recombination metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Meta {
    /// Original register size.
    pub register: u32,
    /// Name of the protected source (informational).
    pub source: String,
    /// Per segment, in execution order: segment wire → original wire.
    /// Two maps are written as `L`/`R`, any other count as `S<i>`.
    pub maps: Vec<BTreeMap<u32, u32>>,
}

fn invert(m: &BTreeMap<Qubit, Qubit>) -> BTreeMap<u32, u32> {
    m.iter()
        .map(|(&orig, &seg)| (seg.raw(), orig.raw()))
        .collect()
}

fn line_err(lineno: usize, what: impl std::fmt::Display) -> String {
    format!("line {}: {what}", lineno + 1)
}

impl Meta {
    /// Builds metadata from the segments of a completed split, in
    /// execution order.
    pub fn from_segments<'a>(
        register: u32,
        segments: impl IntoIterator<Item = &'a tetrislock::interlock::Segment>,
        source: &str,
    ) -> Self {
        Meta {
            register,
            source: source.to_string(),
            maps: segments.into_iter().map(|s| invert(&s.wire_map)).collect(),
        }
    }

    /// Number of segments this metadata describes.
    pub fn num_segments(&self) -> usize {
        self.maps.len()
    }

    /// Serializes to the `.tlk` text form.
    pub fn to_text(&self) -> String {
        let mut out = String::from("tetrislock-meta v1\n");
        let _ = writeln!(out, "register {}", self.register);
        if !self.source.is_empty() {
            let _ = writeln!(out, "source {}", self.source);
        }
        let two_way = self.maps.len() == 2;
        if !two_way {
            let _ = writeln!(out, "segments {}", self.maps.len());
        }
        for (i, map) in self.maps.iter().enumerate() {
            let side = match (two_way, i) {
                (true, 0) => "L".to_string(),
                (true, _) => "R".to_string(),
                (false, _) => format!("S{i}"),
            };
            for (seg, orig) in map {
                let _ = writeln!(out, "map {side} {seg} {orig}");
            }
        }
        out
    }

    /// Parses the `.tlk` text form.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed input, including a
    /// segment index outside the declared count (or past
    /// [`MAX_SEGMENTS`] when no count is declared).
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == "tetrislock-meta v1" => {}
            _ => return Err("missing `tetrislock-meta v1` header".into()),
        }
        let mut meta = Meta::default();
        let mut declared: Option<usize> = None;
        // Whether the maps are named `L`/`R` (`Some(true)`) or `S<i>`.
        let mut two_way: Option<bool> = None;
        for (lineno, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("register") => {
                    meta.register = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| line_err(lineno, "bad register"))?;
                }
                Some("source") => {
                    meta.source = parts.collect::<Vec<_>>().join(" ");
                }
                Some("segments") => {
                    let count = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| (2..=MAX_SEGMENTS).contains(&n))
                        .ok_or_else(|| line_err(lineno, "bad segment count"))?;
                    if declared.is_some() || !meta.maps.is_empty() {
                        return Err(line_err(lineno, "segment count must precede the maps"));
                    }
                    declared = Some(count);
                }
                Some("map") => {
                    let side = parts.next().ok_or_else(|| line_err(lineno, "map side"))?;
                    let seg: u32 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| line_err(lineno, "map segment wire"))?;
                    let orig: u32 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| line_err(lineno, "map original wire"))?;
                    let (index, is_two_way) = match side {
                        "L" => (0, true),
                        "R" => (1, true),
                        s if s.starts_with('S') => {
                            let index: usize = s[1..]
                                .parse()
                                .map_err(|_| line_err(lineno, format!("bad segment `{s}`")))?;
                            (index, false)
                        }
                        other => return Err(line_err(lineno, format!("unknown side `{other}`"))),
                    };
                    if *two_way.get_or_insert(is_two_way) != is_two_way {
                        return Err(line_err(lineno, "mixes L/R and S<i> maps"));
                    }
                    if index >= declared.unwrap_or(MAX_SEGMENTS) {
                        return Err(line_err(
                            lineno,
                            format!("segment `{side}` outside the declared count"),
                        ));
                    }
                    if meta.maps.len() <= index {
                        meta.maps.resize(index + 1, BTreeMap::new());
                    }
                    meta.maps[index].insert(seg, orig);
                }
                Some(other) => return Err(line_err(lineno, format!("unknown key `{other}`"))),
                None => {}
            }
        }
        if meta.register == 0 {
            return Err("missing register size".into());
        }
        let count = declared.unwrap_or(meta.maps.len().max(2));
        meta.maps.resize(count, BTreeMap::new());
        Ok(meta)
    }

    /// The wire maps of every segment in execution order, as
    /// `Qubit → Qubit` (segment → original).
    pub fn qubit_maps(&self) -> Vec<BTreeMap<Qubit, Qubit>> {
        self.maps
            .iter()
            .map(|m| {
                m.iter()
                    .map(|(&s, &o)| (Qubit::new(s), Qubit::new(o)))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Circuit;
    use tetrislock::Obfuscator;

    #[test]
    fn roundtrip_through_text() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(0, 1);
        let obf = Obfuscator::new().with_seed(3).obfuscate(&c);
        let split = obf.split(1);
        let meta = Meta::from_segments(4, [&split.left, &split.right], "demo.qasm");
        let text = meta.to_text();
        let back = Meta::from_text(&text).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.register, 4);
        assert_eq!(back.source, "demo.qasm");

        // A k-way file declares its count, so empty segments survive.
        let meta = Meta {
            register: 3,
            source: String::new(),
            maps: vec![
                [(0, 1)].into(),
                BTreeMap::new(),
                [(0, 2)].into(),
                BTreeMap::new(),
            ],
        };
        let text = meta.to_text();
        assert!(text.contains("segments 4\n"), "{text}");
        assert_eq!(Meta::from_text(&text).unwrap(), meta);
        // A file without the count infers it from the largest index.
        let legacy = "tetrislock-meta v1\nregister 3\nmap S0 0 1\nmap S2 0 2\n";
        assert_eq!(Meta::from_text(legacy).unwrap().num_segments(), 3);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(Meta::from_text("register 3\n").is_err());
    }

    #[test]
    fn rejects_missing_register() {
        assert!(Meta::from_text("tetrislock-meta v1\nsource x\n").is_err());
    }

    #[test]
    fn rejects_malformed_map() {
        let text = "tetrislock-meta v1\nregister 3\nmap Q 0 1\n";
        assert!(Meta::from_text(text).is_err());
        let text = "tetrislock-meta v1\nregister 3\nmap L x 1\n";
        assert!(Meta::from_text(text).is_err());
        // Segment indices past the declared count (or, undeclared, past
        // MAX_SEGMENTS) are errors, not panics or huge allocations.
        for map in ["map S18446744073709551615 0 0", "map S4096 0 0"] {
            let text = format!("tetrislock-meta v1\nregister 3\n{map}\n");
            assert!(Meta::from_text(&text).is_err(), "{map}");
        }
        let text = "tetrislock-meta v1\nregister 3\nsegments 3\nmap S3 0 0\n";
        assert!(Meta::from_text(text).is_err());
        let text = "tetrislock-meta v1\nregister 3\nmap L 0 0\nmap S1 0 1\n";
        assert!(Meta::from_text(text).is_err());
    }

    #[test]
    fn qubit_maps_match_raw_maps() {
        let meta = Meta {
            register: 3,
            maps: vec![[(0, 2)].into(), [(1, 0)].into()],
            ..Meta::default()
        };
        let maps = meta.qubit_maps();
        assert_eq!(maps[0][&Qubit::new(0)], Qubit::new(2));
        assert_eq!(maps[1][&Qubit::new(1)], Qubit::new(0));
    }
}
