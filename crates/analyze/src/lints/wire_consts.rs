//! `wire-const-drift`: the wire-format constants in `crates/edge/src/wire.rs`
//! must agree with the byte-layout tables in `crates/edge/README.md`.
//!
//! The README is the protocol spec operators read; the golden fixtures pin
//! the bytes but nothing pinned the *documentation* until this lint. Each
//! check extracts one fact from both sides and compares:
//!
//! * `WIRE_MAGIC` vs the `magic  ED 56 49 54` row,
//! * `WIRE_VERSION` vs `(currently N)`,
//! * `V2_HEADER_LEN` vs `starts with a N-byte header`,
//! * `CONTROL_PAYLOAD_LEN` / `CONTROL_FRAME_LEN` vs their inline mentions,
//! * `FLAG_CHECKSUM` / `FLAG_CODEC_MASK` / `FLAG_CODEC_SHIFT` vs the flag-bit
//!   table rows (`| 0 | CRC-32 … |`, `| 1–2 | payload codec … |`).
//!
//! A missing constant or a missing README pattern is itself a violation —
//! silently skipping either side would let drift hide behind a rename.

use super::{diag_at, diag_global, Lint};
use crate::diag::Diagnostic;
use crate::source::{SourceFile, TokenKind};
use crate::workspace::{Workspace, EDGE_README};

/// See module docs.
pub struct WireConstDrift;

const WIRE_RS: &str = "crates/edge/src/wire.rs";

/// Parses a Rust integer literal (`16`, `0xED`, `0b0000_0110`).
fn parse_int(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        u64::from_str_radix(bin, 2).ok()
    } else if let Some(oct) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        u64::from_str_radix(oct, 8).ok()
    } else {
        t.parse().ok()
    }
}

/// Token indices of `const NAME` declarations, keyed by name.
fn const_decl(file: &SourceFile, name: &str) -> Option<usize> {
    (0..file.tokens.len()).find(|&i| file.is_ident(i, "const") && file.is_ident(i + 1, name))
}

/// Evaluates `const NAME: T = <expr>;` where `<expr>` is a sum of integer
/// literals and previously-defined integer consts.
fn const_value(file: &SourceFile, name: &str, depth: usize) -> Option<u64> {
    if depth > 4 {
        return None;
    }
    let decl = const_decl(file, name)?;
    let mut i = decl;
    while i < file.tokens.len() && !file.is_punct(i, '=') {
        i += 1;
    }
    let mut total: u64 = 0;
    let mut any = false;
    i += 1;
    while i < file.tokens.len() && !file.is_punct(i, ';') {
        let t = &file.tokens[i];
        match t.kind {
            TokenKind::Number => {
                total = total.checked_add(parse_int(file.tok_text(t))?)?;
                any = true;
            }
            TokenKind::Ident => {
                // Skip type-ish idents (usize/u8) that appear before `=` is
                // not possible here; idents after `=` are const operands.
                let word = file.tok_text(t);
                total = total.checked_add(const_value(file, word, depth + 1)?)?;
                any = true;
            }
            _ => {}
        }
        i += 1;
    }
    any.then_some(total)
}

/// Extracts the byte values of `const NAME: [u8; N] = [ ... ];`.
fn const_bytes(file: &SourceFile, name: &str) -> Option<Vec<u8>> {
    let decl = const_decl(file, name)?;
    let mut i = decl;
    while i < file.tokens.len() && !file.is_punct(i, '=') {
        i += 1;
    }
    let mut out = Vec::new();
    i += 1;
    while i < file.tokens.len() && !file.is_punct(i, ';') {
        let t = &file.tokens[i];
        match t.kind {
            TokenKind::Number => out.push(u8::try_from(parse_int(file.tok_text(t))?).ok()?),
            TokenKind::Char => {
                // b'V' → 0x56. Only plain (unescaped) byte chars appear in
                // the magic; anything fancier fails the comparison loudly.
                let text = file.tok_text(t);
                let inner = text.strip_prefix("b'")?.strip_suffix('\'')?;
                let mut chars = inner.chars();
                let c = chars.next()?;
                if chars.next().is_some() {
                    return None;
                }
                out.push(u8::try_from(c as u32).ok()?);
            }
            _ => {}
        }
        i += 1;
    }
    (!out.is_empty()).then_some(out)
}

/// First run of digits after `marker` in `text`.
fn number_after(text: &str, marker: &str) -> Option<u64> {
    let pos = text.find(marker)? + marker.len();
    let rest = &text[pos..];
    // Only accept a number that starts within a few characters of the
    // marker, so we do not pick up unrelated digits far down the document.
    let first_digit = rest
        .find(|c: char| c.is_ascii_digit())
        .filter(|&o| o <= 3)?;
    let digits: String = rest[first_digit..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The hex bytes of the README's `magic` row (`ED 56 49 54`).
fn readme_magic(text: &str) -> Option<Vec<u8>> {
    let line = text
        .lines()
        .find(|l| l.contains("magic") && l.contains("ED"))?;
    let after = &line[line.find("magic")? + "magic".len()..];
    let mut bytes = Vec::new();
    for word in after.split_whitespace() {
        if word.len() == 2 && word.chars().all(|c| c.is_ascii_hexdigit()) {
            bytes.push(u8::from_str_radix(word, 16).ok()?);
        } else if !bytes.is_empty() {
            break;
        }
    }
    (!bytes.is_empty()).then_some(bytes)
}

/// Parses a flag-table row `| <bits> | <meaning …> |` whose meaning contains
/// `needle`; returns the inclusive bit range (en-dash and hyphen both
/// accepted as the range separator).
fn readme_flag_bits(text: &str, needle: &str) -> Option<(u8, u8)> {
    let row = text
        .lines()
        .find(|l| l.trim_start().starts_with('|') && l.contains(needle))?;
    let bits_cell = row.trim_start().trim_start_matches('|').split('|').next()?;
    let cell = bits_cell.trim();
    let mut parts = cell.split(['\u{2013}', '-']);
    let lo: u8 = parts.next()?.trim().parse().ok()?;
    let hi: u8 = match parts.next() {
        Some(p) => p.trim().parse().ok()?,
        None => lo,
    };
    Some((lo, hi))
}

/// Bit range covered by a contiguous mask (`0b0000_0110` → `(1, 2)`).
fn mask_bits(mask: u64) -> Option<(u8, u8)> {
    if mask == 0 {
        return None;
    }
    let lo = mask.trailing_zeros() as u8;
    let width = (mask >> lo).trailing_ones() as u8;
    // Non-contiguous masks do not map to a `| a–b |` table row.
    (mask >> lo == (1 << width) - 1).then_some((lo, lo + width - 1))
}

struct Checker<'a> {
    lint: &'static str,
    wire: &'a SourceFile,
    out: &'a mut Vec<Diagnostic>,
}

impl Checker<'_> {
    fn anchor(&self, name: &str) -> usize {
        const_decl(self.wire, name).map_or(0, |i| self.wire.tokens[i].start)
    }

    fn fail(&mut self, name: &str, message: String) {
        let offset = self.anchor(name);
        self.out
            .push(diag_at(self.lint, self.wire, offset, message));
    }

    /// Compares one numeric constant against one README-extracted number.
    fn check_num(&mut self, name: &str, readme_value: Option<u64>, where_doc: &str) {
        let code = const_value(self.wire, name, 0);
        match (code, readme_value) {
            (Some(c), Some(r)) if c == r => {}
            (Some(c), Some(r)) => self.fail(
                name,
                format!("`{name}` is {c} in wire.rs but {r} in README ({where_doc}); update whichever side drifted"),
            ),
            (None, _) => self.fail(
                name,
                format!("`{name}` not found in wire.rs; the README layout table ({where_doc}) has nothing to pin against"),
            ),
            (_, None) => self.fail(
                name,
                format!("README is missing the `{where_doc}` mention that documents `{name}`"),
            ),
        }
    }
}

impl Lint for WireConstDrift {
    fn id(&self) -> &'static str {
        "wire-const-drift"
    }

    fn description(&self) -> &'static str {
        "wire.rs header magic/size/flag constants must match the byte-layout tables in crates/edge/README.md"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(wire) = ws.get(WIRE_RS) else {
            // Nothing to check against (e.g. a fixture workspace without a
            // wire module) — the other lints cover such trees.
            return;
        };
        let Some(readme) = ws.aux.get(EDGE_README) else {
            out.push(diag_global(
                self.id(),
                EDGE_README,
                format!("`{EDGE_README}` is missing; the wire byte-layout tables must be checked in next to the code"),
            ));
            return;
        };

        let mut c = Checker {
            lint: self.id(),
            wire,
            out,
        };

        // Magic bytes.
        match (const_bytes(wire, "WIRE_MAGIC"), readme_magic(readme)) {
            (Some(code), Some(doc)) if code == doc => {}
            (Some(code), Some(doc)) => c.fail(
                "WIRE_MAGIC",
                format!("`WIRE_MAGIC` is {code:02X?} in wire.rs but {doc:02X?} in the README header table"),
            ),
            (None, _) => c.fail(
                "WIRE_MAGIC",
                "`WIRE_MAGIC` not found in wire.rs".to_string(),
            ),
            (_, None) => c.fail(
                "WIRE_MAGIC",
                "README header table is missing the `magic` row with its hex bytes".to_string(),
            ),
        }

        c.check_num(
            "WIRE_VERSION",
            number_after(readme, "currently "),
            "version … (currently N)",
        );
        c.check_num(
            "V2_HEADER_LEN",
            number_after(readme, "starts with a "),
            "starts with a N-byte header",
        );
        c.check_num(
            "CONTROL_PAYLOAD_LEN",
            number_after(readme, "`CONTROL_PAYLOAD_LEN` = "),
            "`CONTROL_PAYLOAD_LEN` = N bytes",
        );
        c.check_num(
            "CONTROL_FRAME_LEN",
            number_after(readme, "`CONTROL_FRAME_LEN` = "),
            "`CONTROL_FRAME_LEN` = N",
        );

        // Flag bits: FLAG_CHECKSUM against the CRC row, FLAG_CODEC_MASK (and
        // its shift) against the codec row.
        let checksum_mask = const_value(wire, "FLAG_CHECKSUM", 0);
        match (checksum_mask.and_then(mask_bits), readme_flag_bits(readme, "CRC-32")) {
            (Some(code), Some(doc)) if code == doc => {}
            (Some((lo, hi)), Some((dlo, dhi))) => c.fail(
                "FLAG_CHECKSUM",
                format!("`FLAG_CHECKSUM` covers bits {lo}–{hi} but the README CRC-32 row says bits {dlo}–{dhi}"),
            ),
            (None, _) => c.fail(
                "FLAG_CHECKSUM",
                "`FLAG_CHECKSUM` not found (or not a contiguous bit mask) in wire.rs".to_string(),
            ),
            (_, None) => c.fail(
                "FLAG_CHECKSUM",
                "README flag table is missing the CRC-32 row".to_string(),
            ),
        }

        let codec_mask = const_value(wire, "FLAG_CODEC_MASK", 0);
        match (codec_mask.and_then(mask_bits), readme_flag_bits(readme, "payload codec")) {
            (Some(code), Some(doc)) if code == doc => {
                // The shift must address the low bit of the mask.
                let shift = const_value(wire, "FLAG_CODEC_SHIFT", 0);
                if shift != Some(u64::from(code.0)) {
                    c.fail(
                        "FLAG_CODEC_SHIFT",
                        format!(
                            "`FLAG_CODEC_SHIFT` is {shift:?} but `FLAG_CODEC_MASK`'s low bit is {}",
                            code.0
                        ),
                    );
                }
            }
            (Some((lo, hi)), Some((dlo, dhi))) => c.fail(
                "FLAG_CODEC_MASK",
                format!("`FLAG_CODEC_MASK` covers bits {lo}–{hi} but the README codec row says bits {dlo}–{dhi}"),
            ),
            (None, _) => c.fail(
                "FLAG_CODEC_MASK",
                "`FLAG_CODEC_MASK` not found (or not a contiguous bit mask) in wire.rs".to_string(),
            ),
            (_, None) => c.fail(
                "FLAG_CODEC_MASK",
                "README flag table is missing the payload-codec row".to_string(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::run_all;
    use crate::workspace::Workspace;

    const GOOD_WIRE: &str = "\
pub const WIRE_MAGIC: [u8; 4] = [0xED, b'V', b'I', b'T'];
pub const WIRE_VERSION: u8 = 2;
pub const V2_HEADER_LEN: usize = 16;
pub const CONTROL_PAYLOAD_LEN: usize = 24;
pub const CONTROL_FRAME_LEN: usize = V2_HEADER_LEN + CONTROL_PAYLOAD_LEN;
pub const FLAG_CHECKSUM: u8 = 0b0000_0001;
pub const FLAG_CODEC_MASK: u8 = 0b0000_0110;
pub const FLAG_CODEC_SHIFT: u8 = 1;
";

    const GOOD_README: &str = "\
Every frame starts with a 16-byte header:
 0       4    magic         ED 56 49 54  (0xED + ASCII \"VIT\")
 4       1    version       u8    (currently 2)
| 0 | CRC-32 present |
| 1\u{2013}2 | payload codec |
(`CONTROL_PAYLOAD_LEN` = 24 bytes, `CONTROL_FRAME_LEN` = 40 with the header)
";

    fn drift_hits(wire: &str, readme: &str) -> Vec<Diagnostic> {
        let ws = Workspace::from_memory([("crates/edge/src/wire.rs", wire), (EDGE_README, readme)]);
        run_all(&ws)
            .into_iter()
            .filter(|d| d.lint == "wire-const-drift")
            .collect()
    }

    #[test]
    fn matching_constants_are_clean() {
        assert!(drift_hits(GOOD_WIRE, GOOD_README).is_empty());
    }

    #[test]
    fn version_drift_fires() {
        let wire = GOOD_WIRE.replace("WIRE_VERSION: u8 = 2", "WIRE_VERSION: u8 = 3");
        let found = drift_hits(&wire, GOOD_README);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("WIRE_VERSION"));
    }

    #[test]
    fn magic_drift_fires() {
        let wire = GOOD_WIRE.replace("0xED", "0xEE");
        let found = drift_hits(&wire, GOOD_README);
        assert!(found.iter().any(|d| d.message.contains("WIRE_MAGIC")));
    }

    #[test]
    fn computed_frame_len_resolves_const_sum() {
        let readme = GOOD_README.replace("`CONTROL_FRAME_LEN` = 40", "`CONTROL_FRAME_LEN` = 44");
        let found = drift_hits(GOOD_WIRE, &readme);
        assert!(found
            .iter()
            .any(|d| d.message.contains("CONTROL_FRAME_LEN") && d.message.contains("40")));
    }

    #[test]
    fn flag_bit_drift_and_shift_mismatch_fire() {
        let wire = GOOD_WIRE.replace("FLAG_CODEC_SHIFT: u8 = 1", "FLAG_CODEC_SHIFT: u8 = 2");
        let found = drift_hits(&wire, GOOD_README);
        assert!(found.iter().any(|d| d.message.contains("FLAG_CODEC_SHIFT")));

        let wire2 = GOOD_WIRE.replace("0b0000_0110", "0b0000_1100");
        let found2 = drift_hits(&wire2, GOOD_README);
        assert!(found2.iter().any(|d| d.message.contains("FLAG_CODEC_MASK")));
    }

    #[test]
    fn missing_readme_pattern_fires() {
        let readme = GOOD_README.replace("currently 2", "at v2");
        let found = drift_hits(GOOD_WIRE, &readme);
        assert!(found.iter().any(|d| d.message.contains("WIRE_VERSION")));
    }

    #[test]
    fn missing_readme_file_fires_once() {
        let ws = Workspace::from_memory([("crates/edge/src/wire.rs", GOOD_WIRE)]);
        let found: Vec<_> = run_all(&ws)
            .into_iter()
            .filter(|d| d.lint == "wire-const-drift")
            .collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].file, EDGE_README);
    }

    #[test]
    fn suppression_silences() {
        let wire = GOOD_WIRE.replace(
            "pub const WIRE_VERSION: u8 = 2;",
            "// edvit:allow(wire-const-drift)\npub const WIRE_VERSION: u8 = 3;",
        );
        assert!(drift_hits(&wire, GOOD_README).is_empty());
    }

    #[test]
    fn helpers_parse_shapes() {
        assert_eq!(parse_int("0b0000_0110"), Some(6));
        assert_eq!(parse_int("0xED"), Some(0xED));
        assert_eq!(mask_bits(0b0110), Some((1, 2)));
        assert_eq!(mask_bits(0b0101), None);
        assert_eq!(
            readme_flag_bits("| 1\u{2013}2 | payload codec |", "codec"),
            Some((1, 2))
        );
        assert_eq!(
            readme_flag_bits("| 0 | CRC-32 present |", "CRC-32"),
            Some((0, 0))
        );
    }
}
