//! Bounded, lock-brief JSONL event journal.
//!
//! Lifecycle events (job start/resume, tile computed/restored,
//! checkpoint writes, cache evictions, SMO milestones) append one JSON
//! object per line. The journal follows the checkpoint store's
//! durability discipline: flushes write the whole journal through
//! `qk_chaos::durable::write_atomic` (a pid-tagged temp, the old file
//! removed, then a rename), so a SIGKILL mid-flush leaves the previous
//! journal or the new one, never a torn file — except in the
//! microseconds between remove and rename, where a kill loses the
//! journal (text carries no seal for the next sweep to adopt) and the
//! next life starts it afresh. Reopening an existing journal
//! appends, with the sequence counter continuing where the previous
//! process stopped, so a killed-and-resumed run leaves one auditable
//! trail.
//!
//! Events must carry only *deterministic* fields (indices, counts,
//! fingerprints — never filesystem paths or measured durations): two
//! identical runs then produce journals that are byte-identical after
//! [`strip_timestamps`], which the integration tests pin.
//!
//! Lock order within this module is `flush` → `state`, and `state` is
//! never held across I/O.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Default cap on retained events; past it the newest events are
/// counted as dropped and a `journal_truncated` marker line is
/// appended on flush.
pub const DEFAULT_MAX_EVENTS: usize = 16_384;

#[derive(Debug, Default)]
struct State {
    lines: Vec<String>,
    dropped: u64,
    pending: usize,
}

/// Append-only JSONL event sink with atomic temp+rename flushes.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    epoch: Instant,
    max_events: usize,
    flush_every: usize,
    flush: Mutex<()>,
    state: Mutex<State>,
}

impl Journal {
    /// Open (or reopen) the journal at `path`, creating parent
    /// directories. Existing event lines are kept, so a resumed run
    /// appends to the prior run's trail.
    pub fn open(path: &Path) -> io::Result<Journal> {
        Self::open_bounded(path, DEFAULT_MAX_EVENTS)
    }

    /// [`Journal::open`] with an explicit retained-event cap.
    pub fn open_bounded(path: &Path, max_events: usize) -> io::Result<Journal> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut lines = Vec::new();
        if path.exists() {
            for line in fs::read_to_string(path)?.lines() {
                // The truncation marker is regenerated on flush; keeping
                // it as a data line would double-count it after reopen.
                if !line.trim().is_empty() && !line.contains("\"event\":\"journal_truncated\"") {
                    lines.push(line.to_string());
                }
            }
        }
        Ok(Journal {
            path: path.to_path_buf(),
            epoch: Instant::now(),
            max_events,
            flush_every: 1,
            flush: Mutex::new(()),
            state: Mutex::new(State {
                lines,
                dropped: 0,
                pending: 0,
            }),
        })
    }

    /// Path this journal flushes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Start building an event named `name`. Call
    /// [`EventBuilder::log`] to record it.
    pub fn event<'a>(&'a self, name: &str) -> EventBuilder<'a> {
        let mut fields = String::new();
        write_json_str(&mut fields, name);
        EventBuilder {
            journal: self,
            fields,
        }
    }

    /// Number of retained events (excludes dropped ones).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("journal state lock poisoned")
            .lines
            .len()
    }

    /// True when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped past the retention cap since open.
    pub fn dropped(&self) -> u64 {
        self.state
            .lock()
            .expect("journal state lock poisoned")
            .dropped
    }

    #[cfg(not(feature = "obs-off"))]
    fn append(&self, line: String) {
        let do_flush;
        {
            let mut st = self.state.lock().expect("journal state lock poisoned");
            if st.lines.len() >= self.max_events {
                st.dropped += 1;
            } else {
                st.lines.push(line);
            }
            st.pending += 1;
            do_flush = st.pending >= self.flush_every;
        }
        if do_flush {
            // Best-effort: a full disk must not take the job down.
            let _ = self.flush();
        }
    }

    /// Durably write the journal: snapshot under a brief state lock,
    /// then temp+rename outside it. Serialized by the flush lock.
    #[cfg(not(feature = "obs-off"))]
    pub fn flush(&self) -> io::Result<()> {
        let _serialize = self.flush.lock().expect("journal flush lock poisoned");
        let text = {
            let mut st = self.state.lock().expect("journal state lock poisoned");
            st.pending = 0;
            let mut text = String::with_capacity(st.lines.iter().map(|l| l.len() + 1).sum());
            for line in &st.lines {
                text.push_str(line);
                text.push('\n');
            }
            if st.dropped > 0 {
                let _ = writeln!(
                    text,
                    "{{\"event\":\"journal_truncated\",\"dropped\":{}}}",
                    st.dropped
                );
            }
            text
        };
        qk_chaos::durable::write_atomic(&self.path, text.as_bytes())
    }

    /// No-op under `obs-off`.
    #[cfg(feature = "obs-off")]
    pub fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Incremental event construction; fields serialize in call order.
#[derive(Debug)]
pub struct EventBuilder<'a> {
    journal: &'a Journal,
    fields: String,
}

impl EventBuilder<'_> {
    /// Attach an unsigned integer field.
    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        let _ = write!(self.fields, ",\"{key}\":{value}");
        self
    }

    /// Attach a boolean field.
    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        let _ = write!(self.fields, ",\"{key}\":{value}");
        self
    }

    /// Attach a string field (JSON-escaped).
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        let _ = write!(self.fields, ",\"{key}\":");
        write_json_str(&mut self.fields, value);
        self
    }

    /// Record the event. The sequence number and `t_us` (microseconds
    /// since journal open) are assigned here.
    #[cfg(not(feature = "obs-off"))]
    pub fn log(self) {
        let t_us = u64::try_from(self.journal.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let seq = {
            let st = self
                .journal
                .state
                .lock()
                .expect("journal state lock poisoned");
            st.lines.len() as u64 + st.dropped
        };
        let line = format!(
            "{{\"seq\":{seq},\"t_us\":{t_us},\"event\":{}}}",
            self.fields
        );
        self.journal.append(line);
    }

    /// No-op under `obs-off`.
    #[cfg(feature = "obs-off")]
    pub fn log(self) {}
}

fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Zero out the `t_us` value in a journal line, leaving every
/// deterministic field intact. Two identical runs must produce
/// identical journals under this transform — the comparator the
/// integration tests pin.
pub fn strip_timestamps(line: &str) -> String {
    const KEY: &str = "\"t_us\":";
    match line.find(KEY) {
        None => line.to_string(),
        Some(at) => {
            let digits_start = at + KEY.len();
            let digits_end = line[digits_start..]
                .find(|c: char| !c.is_ascii_digit())
                .map(|off| digits_start + off)
                .unwrap_or(line.len());
            format!("{}0{}", &line[..digits_start], &line[digits_end..])
        }
    }
}

/// Read a journal file as timestamp-stripped lines, ready for
/// equality comparison across runs.
pub fn stripped_lines(path: &Path) -> io::Result<Vec<String>> {
    Ok(fs::read_to_string(path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(strip_timestamps)
        .collect())
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qk_obs_journal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn events_round_trip_as_json_lines() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("j.jsonl");
        let j = Journal::open(&path).unwrap();
        j.event("job_start")
            .field_u64("rows", 48)
            .field_str("kind", "train")
            .log();
        j.event("tile_computed")
            .field_u64("bi", 0)
            .field_u64("bj", 1)
            .log();
        j.flush().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("seq").and_then(|s| s.as_u64()), Some(i as u64));
            assert!(v.get("t_us").is_some());
        }
        assert!(lines[0].contains("\"event\":\"job_start\""));
        assert!(lines[1].contains("\"bj\":1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_with_continuing_seq() {
        let dir = tmp_dir("reopen");
        let path = dir.join("j.jsonl");
        {
            let j = Journal::open(&path).unwrap();
            j.event("first").log();
            j.event("second").log();
        }
        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.len(), 2);
            j.event("third").log();
        }
        let text = fs::read_to_string(&path).unwrap();
        let seqs: Vec<u64> = text
            .lines()
            .map(|l| {
                crate::json::parse(l)
                    .unwrap()
                    .get("seq")
                    .unwrap()
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(seqs, [0, 1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_cap_drops_newest_and_marks_truncation() {
        let dir = tmp_dir("bounded");
        let path = dir.join("j.jsonl");
        let j = Journal::open_bounded(&path, 3).unwrap();
        for i in 0..5u64 {
            j.event("e").field_u64("i", i).log();
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        j.flush().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text
            .lines()
            .last()
            .unwrap()
            .contains("\"journal_truncated\""));
        assert!(text.contains("\"dropped\":2"));
        // No torn temp files left behind.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(stray.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn strip_timestamps_zeroes_only_t_us() {
        let line = "{\"seq\":7,\"t_us\":123456,\"event\":\"tile_computed\",\"bi\":2}";
        assert_eq!(
            strip_timestamps(line),
            "{\"seq\":7,\"t_us\":0,\"event\":\"tile_computed\",\"bi\":2}"
        );
        let no_ts = "{\"event\":\"journal_truncated\",\"dropped\":2}";
        assert_eq!(strip_timestamps(no_ts), no_ts);
    }

    #[test]
    fn identical_event_streams_compare_equal_after_stripping() {
        let dir = tmp_dir("compare");
        for run in ["a", "b"] {
            let j = Journal::open(&dir.join(format!("{run}.jsonl"))).unwrap();
            j.event("job_start").field_u64("rows", 10).log();
            for i in 0..4u64 {
                j.event("tile_computed").field_u64("bi", i).log();
                std::thread::sleep(std::time::Duration::from_millis(if run == "a" {
                    1
                } else {
                    3
                }));
            }
            j.event("job_end").field_str("status", "complete").log();
        }
        let a = stripped_lines(&dir.join("a.jsonl")).unwrap();
        let b = stripped_lines(&dir.join("b.jsonl")).unwrap();
        assert_eq!(a, b);
        assert_ne!(
            fs::read_to_string(dir.join("a.jsonl")).unwrap(),
            fs::read_to_string(dir.join("b.jsonl")).unwrap(),
            "raw journals should differ in timestamps (sanity check)"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn escaped_strings_survive_the_parser() {
        let dir = tmp_dir("escape");
        let path = dir.join("j.jsonl");
        let j = Journal::open(&path).unwrap();
        j.event("note")
            .field_str("msg", "quote \" slash \\ tab\tnewline\n")
            .log();
        j.flush().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let v = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            v.get("msg").and_then(|m| m.as_str()),
            Some("quote \" slash \\ tab\tnewline\n")
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
