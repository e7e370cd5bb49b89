//! `qre merge` — join shard NDJSON result files back into one sweep.
//!
//! The fan-out side is `qre serve` with per-job `"shard": {"index", "count"}`
//! fields: `n` server processes fed the same sweep line each produce the
//! item records of their row-major block, every record carrying its
//! **global** sweep `"index"`. This module is the join side: read the shard
//! sessions' output files, keep the item records, and re-assemble them in
//! expansion order, validating the merge plan through the same join the
//! in-process API uses ([`qre_core::merge_indexed`]) — a duplicate or
//! missing index fails the merge, so a successful merge *is* the proof that
//! the shard files cover the sweep exactly.
//!
//! The join **streams**: it never holds more than one record's text in
//! memory, however large the shards. Pass one scans every file
//! sequentially, classifying each line and keeping only an index entry
//! `(global index, file, byte offset)` — the parsed record is dropped on
//! the spot. The entries, sorted by global index, form the merge plan
//! (an index-join over the files' sorted runs); pass two replays the plan,
//! seeking to one line at a time, re-parsing it, and writing its compact
//! form. Resident state is the index table (a few machine words per
//! record) plus a single line buffer — [`MergeSummary::peak_resident_bytes`]
//! reports the high-water mark of record text actually held, which the
//! memory-bound tests pin to one record, not one sweep.
//!
//! Bookkeeping records are dropped, not merged: per-shard `"stats"` records
//! describe one shard's session (their counters are meaningless for the
//! union), `"progress"` records are transport chatter, and the network
//! mode's session framing — `"hello"`/`"bye"` lifecycle records and
//! `"control"` acknowledgements — describes connections, not sweep items,
//! so a socket session's captured output merges as-is. A job-level error
//! record (`"status": "error"` without an item `"index"`) means a shard
//! session failed to run its job, so the merge fails loudly naming the file
//! and line rather than emitting a silently incomplete sweep.

use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};

use qre_json::Value;

/// What a merge did, for logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeSummary {
    /// Shard files read.
    pub files: usize,
    /// Item records merged (== lines written).
    pub items: usize,
    /// Bookkeeping records dropped (`"stats"`, `"progress"`, lifecycle
    /// framing, and `"control"` acknowledgements).
    pub skipped: usize,
    /// High-water mark of record text held in memory at once, in bytes —
    /// one line's worth, independent of shard size, because the join
    /// streams (see the module docs). Index-table bookkeeping (a few words
    /// per record) is not record text and is not counted.
    pub peak_resident_bytes: usize,
}

/// One item record's place in the merge plan: where to find it again.
struct ItemEntry {
    /// Global sweep index.
    index: usize,
    /// Position in `paths` of the file holding the record.
    file: usize,
    /// Byte offset of the record's line within that file.
    offset: u64,
    /// 1-based line number, for error messages.
    lineno: usize,
}

/// Classify one parsed NDJSON record from a shard file: `Ok(Some(index))`
/// for an item record, `Ok(None)` for dropped bookkeeping.
fn classify(record: &Value, place: &str) -> Result<Option<usize>, String> {
    if record.as_object().is_none() {
        return Err(format!("{place}: record is not a JSON object"));
    }
    if record.get("stats").is_some()
        || record.get("progress").is_some()
        || record.get("hello").is_some()
        || record.get("bye").is_some()
        || record.get("control").is_some()
    {
        return Ok(None);
    }
    match record.get("index").map(Value::as_u64) {
        Some(Some(index)) => {
            let index = usize::try_from(index)
                .map_err(|_| format!("{place}: item index {index} out of range"))?;
            Ok(Some(index))
        }
        Some(None) => Err(format!("{place}: `index` is not a non-negative integer")),
        None => {
            // No index and not bookkeeping: either a failed shard job or a
            // record from a non-sweep session — both unmergeable.
            if record.get("status").and_then(Value::as_str) == Some("error") {
                let message = record
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown error");
                Err(format!(
                    "{place}: shard session reported a job-level error ({message}); \
                     re-run that shard before merging"
                ))
            } else {
                Err(format!(
                    "{place}: record carries no sweep `index`; only sweep-shard \
                     output files can be merged"
                ))
            }
        }
    }
}

/// Pass one over one shard file: scan sequentially, classify every line,
/// and append item entries to the merge plan. Only one line (and its
/// transiently parsed record) is resident at a time.
fn index_shard_file(
    path: &str,
    file_id: usize,
    plan: &mut Vec<ItemEntry>,
    skipped: &mut usize,
    peak: &mut usize,
) -> Result<(), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let mut offset = 0u64;
    let mut lineno = 0usize;
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| format!("failed to read {path}: {e}"))?;
        if read == 0 {
            return Ok(());
        }
        lineno += 1;
        let line_start = offset;
        offset += read as u64;
        if line.trim().is_empty() {
            continue;
        }
        *peak = (*peak).max(line.len());
        let place = format!("{path}:{lineno}");
        // Parse to classify, then drop the record immediately: pass one
        // keeps index entries, never record contents.
        let record =
            qre_json::parse(&line).map_err(|e| format!("{place}: invalid NDJSON record: {e}"))?;
        match classify(&record, &place)? {
            Some(index) => plan.push(ItemEntry {
                index,
                file: file_id,
                offset: line_start,
                lineno,
            }),
            None => *skipped += 1,
        }
    }
}

/// Merge shard NDJSON files, writing one item record per line (in global
/// index order) to `out`. Streams: holds one record at a time, never a
/// shard or the sweep. See the module docs for what is merged, dropped,
/// and rejected.
pub fn merge_files(paths: &[String], out: &mut dyn Write) -> Result<MergeSummary, String> {
    if paths.is_empty() {
        return Err("merge requires at least one shard file".into());
    }

    // Pass one: build the merge plan (index entries only).
    let mut plan: Vec<ItemEntry> = Vec::new();
    let mut skipped = 0usize;
    let mut peak = 0usize;
    for (file_id, path) in paths.iter().enumerate() {
        index_shard_file(path, file_id, &mut plan, &mut skipped, &mut peak)?;
    }

    // Sort the plan and validate its `0..n` coverage through the in-process
    // join, `qre_core::merge_indexed`. The sort is the index-join over the
    // files' runs; each file's entries are already in that file's
    // completion order, the sort aligns them globally without touching
    // record text.
    let plan = qre_core::merge_indexed([plan], |entry| entry.index).map_err(|e| e.to_string())?;

    // Pass two: replay the plan, one record resident at a time.
    let mut readers: Vec<BufReader<std::fs::File>> = Vec::with_capacity(paths.len());
    for path in paths {
        let file = std::fs::File::open(path).map_err(|e| format!("failed to read {path}: {e}"))?;
        readers.push(BufReader::new(file));
    }
    let mut line = String::new();
    for entry in &plan {
        let path = &paths[entry.file];
        let reader = &mut readers[entry.file];
        reader
            .seek(SeekFrom::Start(entry.offset))
            .map_err(|e| format!("failed to read {path}: {e}"))?;
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("failed to read {path}: {e}"))?;
        let place = format!("{path}:{}", entry.lineno);
        // A file that changed between passes can fail the re-parse; report
        // it rather than emitting a corrupt merge.
        let record =
            qre_json::parse(&line).map_err(|e| format!("{place}: invalid NDJSON record: {e}"))?;
        writeln!(out, "{}", record.to_string_compact())
            .map_err(|e| format!("failed to write merged output: {e}"))?;
    }
    out.flush()
        .map_err(|e| format!("failed to write merged output: {e}"))?;
    Ok(MergeSummary {
        files: paths.len(),
        items: plan.len(),
        skipped,
        peak_resident_bytes: peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(index: usize) -> String {
        format!("{{\"job\":\"s\",\"index\":{index},\"status\":\"success\"}}")
    }

    fn write_file(name: &str, lines: &[String]) -> String {
        let path = std::env::temp_dir().join(format!(
            "qre-merge-test-{}-{:?}-{name}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn merges_interleaved_shards_in_index_order() {
        // Shard `a` is a pipe session's capture; shard `b` is a network
        // session's, complete with lifecycle framing and a control ack —
        // both merge as-is.
        let a = write_file(
            "a",
            &[
                item(2),
                item(0),
                "{\"job\":\"s\",\"stats\":{\"items\":2}}".into(),
            ],
        );
        let b = write_file(
            "b",
            &[
                "{\"hello\":{\"session\":2,\"protocol\":\"qre-serve/1\"}}".into(),
                item(1),
                item(3),
                "{\"job\":\"q\",\"control\":\"shutdown\",\"status\":\"ok\"}".into(),
                "{\"bye\":{\"session\":2,\"jobs\":2}}".into(),
            ],
        );
        let mut out = Vec::new();
        let summary = merge_files(&[a.clone(), b.clone()], &mut out).unwrap();
        assert_eq!((summary.files, summary.items, summary.skipped), (2, 4, 4));
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(line, &item(i), "line {i} out of order");
        }
        std::fs::remove_file(a).unwrap();
        std::fs::remove_file(b).unwrap();
    }

    #[test]
    fn gaps_duplicates_and_bad_records_are_rejected() {
        let gap = write_file("gap", &[item(0), item(2)]);
        let err = merge_files(std::slice::from_ref(&gap), &mut Vec::new()).unwrap_err();
        assert!(err.contains("expected item index 1"), "{err}");
        std::fs::remove_file(gap).unwrap();

        let a = write_file("dup-a", &[item(0), item(1)]);
        let err = merge_files(&[a.clone(), a.clone()], &mut Vec::new()).unwrap_err();
        assert!(err.contains("do not cover"), "{err}");
        std::fs::remove_file(a).unwrap();

        let failed = write_file(
            "failed",
            &["{\"job\":1,\"status\":\"error\",\"message\":\"invalid job: nope\"}".into()],
        );
        let err = merge_files(std::slice::from_ref(&failed), &mut Vec::new()).unwrap_err();
        assert!(err.contains("job-level error"), "{err}");
        assert!(err.contains("nope"), "{err}");
        std::fs::remove_file(failed).unwrap();

        let not_json = write_file("notjson", &["this is not json".into()]);
        let err = merge_files(std::slice::from_ref(&not_json), &mut Vec::new()).unwrap_err();
        assert!(err.contains("invalid NDJSON record"), "{err}");
        std::fs::remove_file(not_json).unwrap();

        let no_index = write_file(
            "noindex",
            &["{\"job\":1,\"status\":\"success\",\"physicalCounts\":{}}".into()],
        );
        let err = merge_files(std::slice::from_ref(&no_index), &mut Vec::new()).unwrap_err();
        assert!(err.contains("no sweep `index`"), "{err}");
        std::fs::remove_file(no_index).unwrap();

        assert!(merge_files(&[], &mut Vec::new())
            .unwrap_err()
            .contains("at least one"));

        let err = merge_files(&["/nonexistent/shard.ndjson".into()], &mut Vec::new()).unwrap_err();
        assert!(err.contains("failed to read"), "{err}");
    }

    #[test]
    fn output_normalizes_whitespace_like_the_collecting_join() {
        // Records with pretty-ish spacing still come out compact — the
        // streamed join re-parses and re-prints exactly as the collecting
        // join did.
        let spaced = write_file(
            "spaced",
            &["{ \"job\": \"s\",  \"index\": 0 ,\"status\": \"success\" }".into()],
        );
        let mut out = Vec::new();
        merge_files(std::slice::from_ref(&spaced), &mut out).unwrap();
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            "{\"job\":\"s\",\"index\":0,\"status\":\"success\"}\n"
        );
        std::fs::remove_file(spaced).unwrap();
    }

    #[test]
    fn large_shards_merge_with_one_record_resident() {
        // The memory-bound assertion of the streamed join: four shards,
        // ~100k records, several MB of record text in total — yet the
        // high-water mark of resident record text stays at one line.
        let shards = 4usize;
        let per_shard = 25_000usize;
        let total = shards * per_shard;
        // ~120-byte records with a recognisable payload.
        let padding = "x".repeat(64);
        let record = |index: usize| {
            format!(
                "{{\"job\":\"big\",\"index\":{index},\"status\":\"success\",\
                 \"result\":{{\"pad\":\"{padding}\"}}}}"
            )
        };
        let mut total_bytes = 0usize;
        let mut max_line = 0usize;
        let paths: Vec<String> = (0..shards)
            .map(|s| {
                // Interleave round-robin and reverse within the shard, so
                // the plan genuinely reorders across files.
                let lines: Vec<String> = (0..per_shard)
                    .rev()
                    .map(|i| record(i * shards + s))
                    .collect();
                for l in &lines {
                    total_bytes += l.len();
                    max_line = max_line.max(l.len() + 1);
                }
                write_file(&format!("big-{s}"), &lines)
            })
            .collect();

        let mut out = Vec::new();
        let summary = merge_files(&paths, &mut out).unwrap();
        assert_eq!(summary.items, total);
        assert!(
            summary.peak_resident_bytes <= max_line,
            "resident record text {} exceeds one line ({max_line})",
            summary.peak_resident_bytes
        );
        assert!(
            summary.peak_resident_bytes * 100 < total_bytes,
            "peak {} is not << total {total_bytes}",
            summary.peak_resident_bytes
        );
        // Spot-check global order on the merged output.
        let text = std::str::from_utf8(&out).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), record(0));
        assert_eq!(text.lines().count(), total);
        assert_eq!(text.lines().last().unwrap(), record(total - 1));
        for path in paths {
            std::fs::remove_file(path).unwrap();
        }
    }
}
