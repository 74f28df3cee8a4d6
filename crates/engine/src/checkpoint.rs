//! Unit-level JSONL checkpointing.
//!
//! When a [`crate::run::RunConfig`] names a checkpoint path, every completed
//! [`UnitRecord`] is appended to the file — one JSON object per line, flushed
//! per record — so an interrupted campaign loses at most the units in flight.
//! The first line is a header embedding the wire-encoded scenario (see
//! [`crate::wire`]) and its fingerprint; [`crate::run::Run::resume`] rebuilds
//! the plan from the file alone, refuses mismatched scenarios, and re-runs
//! only the missing units.
//!
//! Float payloads are stored twice: a human-readable `value` and the exact
//! `value_bits` hex pattern. Resume reads the bits, which is what makes a
//! resumed report bit-identical to an uninterrupted one.

use crate::error::EngineError;
use crate::report::UnitRecord;
use crate::scenario::Scenario;
use crate::wire;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// Identity and sizing metadata from a checkpoint's header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Fingerprint of the wire-encoded scenario.
    pub fingerprint: u64,
    /// Units the originating plan schedules.
    pub total_units: usize,
    /// Percent-encoded wire scenario (decode with [`CheckpointHeader::scenario`]).
    pub scenario_wire: String,
}

impl CheckpointHeader {
    /// Decodes the embedded scenario.
    ///
    /// # Errors
    ///
    /// Propagates wire-format decoding failures.
    pub fn scenario(&self) -> Result<Scenario, EngineError> {
        wire::decode_scenario(&self.scenario_wire)
    }
}

/// A parsed checkpoint: header plus every intact record.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Header metadata.
    pub header: CheckpointHeader,
    /// Deduplicated records in file order (first occurrence of each unit wins).
    pub records: Vec<UnitRecord>,
}

fn checkpoint_error(reason: impl Into<String>) -> EngineError {
    EngineError::Checkpoint(reason.into())
}

/// Extracts `"key":<u64>` from one of our own JSON lines — the checkpoint
/// and cost-table files here and the daemon's job journal. `None` when the
/// key is absent or its value is not a `u64`. The quotes are part of the
/// match, so `"value"` never matches `"value_bits"`.
pub fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key":"<string>"` from one of our own JSON lines (no escapes —
/// our writers only emit percent-encoded, hex or plain-label payloads).
/// `None` when the key is absent or its value is not a string.
pub fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    rest.split('"').next()
}

/// Formats one record as its JSONL line (without trailing newline). The
/// `degraded` key is appended only when set, so checkpoints from clean runs
/// stay byte-identical to those written before the key existed.
pub(crate) fn record_line(record: &UnitRecord) -> String {
    let degraded = if record.degraded {
        ",\"degraded\":1"
    } else {
        ""
    };
    format!(
        "{{\"kind\":\"unit\",\"unit\":{},\"case\":{},\"value\":{},\"value_bits\":\"{:016x}\",\"residual_bits\":\"{:016x}\"{degraded}}}",
        record.unit,
        record.case_index,
        record.value,
        record.value.to_bits(),
        record.relative_residual.to_bits()
    )
}

fn parse_record(line: &str) -> Option<UnitRecord> {
    if !line.contains("\"kind\":\"unit\"") {
        return None;
    }
    Some(UnitRecord {
        unit: extract_u64(line, "unit")? as usize,
        case_index: extract_u64(line, "case")? as usize,
        value: f64::from_bits(u64::from_str_radix(extract_str(line, "value_bits")?, 16).ok()?),
        relative_residual: f64::from_bits(
            u64::from_str_radix(extract_str(line, "residual_bits")?, 16).ok()?,
        ),
        // Absent in checkpoints written before the degradation ladder existed.
        degraded: extract_u64(line, "degraded").unwrap_or(0) != 0,
    })
}

/// Reads and validates a checkpoint file.
///
/// Malformed record lines (e.g. a line truncated by a kill mid-write) are
/// skipped — their units simply re-run on resume. Duplicate unit ids keep the
/// first occurrence.
///
/// # Errors
///
/// Returns [`EngineError::Checkpoint`] when the file cannot be read or its
/// header is missing/corrupt.
pub fn read(path: impl AsRef<Path>) -> Result<Checkpoint, EngineError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| checkpoint_error(format!("cannot read {}: {e}", path.display())))?;
    parse(&text)
}

/// Parses checkpoint JSONL text with the same tolerant rules as [`read`] —
/// the entry point for checkpoints that arrive over the wire (the service
/// daemon serves cached reports as checkpoint text) rather than from disk.
///
/// # Errors
///
/// Returns [`EngineError::Checkpoint`] when the header is missing or corrupt.
pub fn parse(text: &str) -> Result<Checkpoint, EngineError> {
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| checkpoint_error("empty checkpoint file"))?;
    if !header_line.contains("\"kind\":\"header\"") {
        return Err(checkpoint_error("first line is not a checkpoint header"));
    }
    let header = CheckpointHeader {
        fingerprint: extract_str(header_line, "fingerprint")
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| checkpoint_error("header is missing the scenario fingerprint"))?,
        total_units: extract_u64(header_line, "total_units")
            .ok_or_else(|| checkpoint_error("header is missing total_units"))?
            as usize,
        scenario_wire: wire::decode_token(
            extract_str(header_line, "scenario")
                .ok_or_else(|| checkpoint_error("header is missing the scenario"))?,
        )?,
    };
    let mut seen = std::collections::HashSet::new();
    let mut records = Vec::new();
    for line in lines {
        if let Some(record) = parse_record(line) {
            if record.unit < header.total_units && seen.insert(record.unit) {
                records.push(record);
            }
        }
    }
    Ok(Checkpoint { header, records })
}

/// Outcome of a [`compact`] pass over a checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Intact, deduplicated records surviving the rewrite.
    pub records_kept: usize,
    /// Non-header lines dropped: torn fragments, duplicates, blanks and
    /// out-of-range units.
    pub lines_dropped: usize,
    /// File size before compaction, in bytes.
    pub bytes_before: u64,
    /// File size after compaction, in bytes.
    pub bytes_after: u64,
}

/// Rewrites a checkpoint in place, dropping torn fragments and duplicates.
///
/// Long-lived queues re-append on every retry, and a kill mid-write leaves a
/// torn tail; both accumulate garbage that [`read`] tolerates but never
/// reclaims. Compaction rewrites the file as the **verbatim original header
/// line** (the fingerprint survives byte for byte) followed by one line per
/// surviving record, first occurrence winning — exactly the records [`read`]
/// would have returned. The rewrite goes through
/// [`crate::durable::replace_file`] — temporary file, `fsync`, atomic
/// rename, parent-directory `fsync` — so a crash or power loss
/// mid-compaction leaves either the old or the new file, never a mix.
///
/// # Errors
///
/// Returns [`EngineError::Checkpoint`] when the file cannot be read, its
/// header is missing/corrupt, or the rewrite fails.
pub fn compact(path: impl AsRef<Path>) -> Result<CompactionStats, EngineError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| checkpoint_error(format!("cannot read {}: {e}", path.display())))?;
    let bytes_before = text.len() as u64;

    // Validate the header and collect the surviving records with the same
    // tolerant rules as `read`, but keep the raw header line for the rewrite.
    let checkpoint = parse(&text)?;
    let header_line = text
        .lines()
        .next()
        .ok_or_else(|| checkpoint_error("empty checkpoint file"))?;
    let body_lines = text.lines().count() - 1;

    let mut out = String::with_capacity(text.len());
    out.push_str(header_line);
    out.push('\n');
    for record in &checkpoint.records {
        out.push_str(&record_line(record));
        out.push('\n');
    }

    crate::durable::replace_file(path, "compact-tmp", out.as_bytes())
        .map_err(|e| checkpoint_error(format!("cannot replace {}: {e}", path.display())))?;

    Ok(CompactionStats {
        records_kept: checkpoint.records.len(),
        lines_dropped: body_lines - checkpoint.records.len(),
        bytes_before,
        bytes_after: out.len() as u64,
    })
}

/// Append-mode writer that flushes every record to disk immediately.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: BufWriter<File>,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint for a fresh run and writes its header.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on I/O failure.
    pub fn create(
        path: impl AsRef<Path>,
        scenario: &Scenario,
        total_units: usize,
    ) -> Result<Self, EngineError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    checkpoint_error(format!("cannot create {}: {e}", parent.display()))
                })?;
            }
        }
        let file = File::create(path)
            .map_err(|e| checkpoint_error(format!("cannot create {}: {e}", path.display())))?;
        let mut writer = Self {
            file: BufWriter::new(file),
        };
        let wire = wire::encode_scenario(scenario);
        let header = format!(
            "{{\"kind\":\"header\",\"format\":1,\"fingerprint\":\"{:016x}\",\"total_units\":{},\"scenario\":\"{}\"}}",
            wire::scenario_fingerprint(scenario),
            total_units,
            wire::encode_token(&wire)
        );
        writer.write_line(&header)?;
        Ok(writer)
    }

    /// Reopens an existing checkpoint for appending (resume path; the caller
    /// has already validated the header via [`read`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on I/O failure.
    pub fn append_to(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let path = path.as_ref();
        // A kill mid-append can leave a torn final line with no newline; start
        // a fresh line so the next record does not merge into the fragment.
        let needs_newline = std::fs::read(path)
            .map(|bytes| !bytes.is_empty() && bytes.last() != Some(&b'\n'))
            .unwrap_or(false);
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| checkpoint_error(format!("cannot append to {}: {e}", path.display())))?;
        let mut writer = Self {
            file: BufWriter::new(file),
        };
        if needs_newline {
            writer.write_line("")?;
        }
        Ok(writer)
    }

    /// Durably appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on I/O failure.
    pub fn append(&mut self, record: &UnitRecord) -> Result<(), EngineError> {
        let line = record_line(record);
        // Fault point: flush half the line without its newline — the torn
        // tail a kill mid-append leaves — then report the failure.
        if rough_faults::should_fire("checkpoint.append.torn") {
            let torn = &line[..line.len() / 2];
            write!(self.file, "{torn}")
                .and_then(|()| self.file.flush())
                .ok();
            return Err(checkpoint_error(
                "injected torn checkpoint append (fault plan)",
            ));
        }
        self.write_line(&line)
    }

    fn write_line(&mut self, line: &str) -> Result<(), EngineError> {
        writeln!(self.file, "{line}")
            .and_then(|()| self.file.flush())
            .map_err(|e| checkpoint_error(format!("write failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    #[test]
    fn field_reader_matches_whole_keys_only() {
        let line = r#"{"kind":"unit","value_bits":"3ff0000000000000","unit":7}"#;
        assert_eq!(extract_str(line, "value"), None);
        assert_eq!(extract_u64(line, "value"), None);
        assert_eq!(extract_str(line, "value_bits"), Some("3ff0000000000000"));
        assert_eq!(extract_u64(line, "unit"), Some(7));
        let both = r#"{"value_bits":"3ff0","value":42}"#;
        assert_eq!(extract_u64(both, "value"), Some(42));
        assert_eq!(extract_u64(line, "case"), None);
        assert_eq!(extract_str(line, "fingerprint"), None);
    }

    fn scenario() -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .name("checkpoint unit")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(6)
            .monte_carlo(4)
            .build()
            .unwrap()
    }

    fn record(unit: usize, value: f64) -> UnitRecord {
        UnitRecord {
            unit,
            case_index: 0,
            value,
            relative_residual: 1e-13,
            degraded: false,
        }
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let dir = std::env::temp_dir().join("rough_engine_ckpt_roundtrip");
        let path = dir.join("run.jsonl");
        let scenario = scenario();
        {
            let mut writer = CheckpointWriter::create(&path, &scenario, 4).unwrap();
            writer.append(&record(0, 1.0 + f64::EPSILON)).unwrap();
            writer.append(&record(2, 0.1 + 0.2)).unwrap();
        }
        let checkpoint = read(&path).unwrap();
        assert_eq!(checkpoint.header.total_units, 4);
        assert_eq!(
            checkpoint.header.fingerprint,
            wire::scenario_fingerprint(&scenario)
        );
        assert_eq!(
            wire::encode_scenario(&checkpoint.header.scenario().unwrap()),
            wire::encode_scenario(&scenario)
        );
        assert_eq!(checkpoint.records.len(), 2);
        assert_eq!(
            checkpoint.records[0].value.to_bits(),
            (1.0 + f64::EPSILON).to_bits()
        );
        assert_eq!(
            checkpoint.records[1].value.to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_trailing_lines_are_skipped() {
        let dir = std::env::temp_dir().join("rough_engine_ckpt_truncated");
        let path = dir.join("run.jsonl");
        let scenario = scenario();
        {
            let mut writer = CheckpointWriter::create(&path, &scenario, 4).unwrap();
            writer.append(&record(1, 1.25)).unwrap();
        }
        // Simulate a kill mid-append: a half-written record line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"unit\",\"unit\":3,\"case\":0,\"val");
        std::fs::write(&path, text).unwrap();

        let checkpoint = read(&path).unwrap();
        assert_eq!(checkpoint.records.len(), 1);
        assert_eq!(checkpoint.records[0].unit, 1);

        // Appending after the torn line still yields parseable records.
        {
            let mut writer = CheckpointWriter::append_to(&path).unwrap();
            writer.append(&record(3, 2.5)).unwrap();
        }
        // The torn fragment merges into the next line; only intact records
        // count, and the latest append is intact because append starts a new
        // write position at EOF. Either way unit 1 survives.
        let reread = read(&path).unwrap();
        assert!(reread.records.iter().any(|r| r.unit == 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_units_keep_the_first_record() {
        let dir = std::env::temp_dir().join("rough_engine_ckpt_dup");
        let path = dir.join("run.jsonl");
        {
            let mut writer = CheckpointWriter::create(&path, &scenario(), 4).unwrap();
            writer.append(&record(0, 1.0)).unwrap();
            writer.append(&record(0, 9.0)).unwrap();
        }
        let checkpoint = read(&path).unwrap();
        assert_eq!(checkpoint.records.len(), 1);
        assert_eq!(checkpoint.records[0].value, 1.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_flag_roundtrips_and_clean_lines_are_byte_stable() {
        // Clean records must not mention the key at all — old-format bytes.
        let clean = record(5, 1.5);
        assert!(!record_line(&clean).contains("degraded"));
        assert!(!parse_record(&record_line(&clean)).unwrap().degraded);

        let mut flagged = record(5, 1.5);
        flagged.degraded = true;
        let line = record_line(&flagged);
        assert!(line.ends_with(",\"degraded\":1}"));
        assert!(parse_record(&line).unwrap().degraded);
    }

    #[test]
    fn compaction_drops_torn_tails_and_duplicates() {
        let dir = std::env::temp_dir().join("rough_engine_ckpt_compact");
        let path = dir.join("run.jsonl");
        {
            let mut writer = CheckpointWriter::create(&path, &scenario(), 4).unwrap();
            writer.append(&record(0, 1.0 + f64::EPSILON)).unwrap();
            writer.append(&record(1, 0.1 + 0.2)).unwrap();
            writer.append(&record(0, 9.0)).unwrap(); // duplicate: first wins
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"unit\",\"unit\":3,\"case\":0,\"val"); // torn tail
        std::fs::write(&path, &text).unwrap();

        let before = read(&path).unwrap();
        let stats = compact(&path).unwrap();
        assert_eq!(stats.records_kept, 2);
        assert_eq!(stats.lines_dropped, 2); // duplicate + torn fragment
        assert!(stats.bytes_after < stats.bytes_before);

        let after = read(&path).unwrap();
        assert_eq!(after.header, before.header);
        assert_eq!(after.records.len(), before.records.len());
        for (a, b) in after.records.iter().zip(&before.records) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.relative_residual.to_bits(), b.relative_residual.to_bits());
        }
        // The rewritten file is exactly header + surviving records.
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, 1 + stats.records_kept);

        // Idempotent: a second pass finds nothing to drop.
        let again = compact(&path).unwrap();
        assert_eq!(again.lines_dropped, 0);
        assert_eq!(again.bytes_after, again.bytes_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    // A kill can truncate the JSONL tail at any byte. Whatever the cut
    // point, compaction must keep the header line byte-for-byte (the
    // fingerprint pins resume identity) and exactly the records a tolerant
    // `read` of the torn file recovers, bit-identically.
    proptest::proptest! {
        #[test]
        fn prop_compaction_of_torn_tails_preserves_header_and_records(cut in 0usize..1 << 14) {
            let dir = std::env::temp_dir().join("rough_engine_ckpt_compact_prop");
            let path = dir.join("torn.jsonl");
            {
                let mut writer = CheckpointWriter::create(&path, &scenario(), 12).unwrap();
                for unit in 0..10usize {
                    writer
                        .append(&record(unit, (0.1 + 0.2) * (unit as f64 + f64::EPSILON)))
                        .unwrap();
                }
                writer.append(&record(4, 99.0)).unwrap(); // duplicate
            }
            let full = std::fs::read(&path).unwrap();
            let header_end = full.iter().position(|&b| b == b'\n').unwrap() + 1;
            let offset = header_end + cut % (full.len() - header_end + 1);
            std::fs::write(&path, &full[..offset]).unwrap();

            let torn = read(&path).unwrap();
            let stats = compact(&path).unwrap();
            let compacted = read(&path).unwrap();

            proptest::prop_assert_eq!(&compacted.header, &torn.header);
            proptest::prop_assert_eq!(compacted.records.len(), torn.records.len());
            proptest::prop_assert_eq!(stats.records_kept, torn.records.len());
            for (a, b) in compacted.records.iter().zip(&torn.records) {
                proptest::prop_assert_eq!(a.unit, b.unit);
                proptest::prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                proptest::prop_assert_eq!(
                    a.relative_residual.to_bits(),
                    b.relative_residual.to_bits()
                );
            }
            // The header line survives verbatim.
            let rewritten = std::fs::read(&path).unwrap();
            proptest::prop_assert_eq!(&rewritten[..header_end], &full[..header_end]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn missing_or_headerless_files_error() {
        assert!(read("/nonexistent/run.jsonl").is_err());
        let dir = std::env::temp_dir().join("rough_engine_ckpt_headerless");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{\"kind\":\"unit\"}\n").unwrap();
        assert!(read(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
