//! Bounded, lock-brief JSONL event journal.
//!
//! Lifecycle events (job start/resume, tile computed/restored,
//! checkpoint writes, cache evictions, SMO milestones) append one JSON
//! object per line, and each event costs one append-mode write of its
//! own line, so a job's journal costs O(events) bytes of I/O. What a
//! kill leaves, by the step it lands in:
//!
//! | step                                  | a kill leaves                      |
//! |---------------------------------------|------------------------------------|
//! | appending one event line              | every earlier line, and at most a  |
//! |                                       | torn last line with no `\n`, which |
//! |                                       | the next [`Journal::open`] drops   |
//! | rewriting the truncation marker       | every retained line, with no marker|
//! | (truncate, then append)               | or the new one                     |
//! | the first write of a life, or a write | the previous journal or the new    |
//! | after a failed one: the whole journal | one, except between remove and     |
//! | through `qk_chaos::durable::          | rename, where the journal is lost  |
//! | write_atomic`                         | and the next life starts afresh    |
//!
//! The whole-journal rewrite runs once per life, because opening drops
//! the torn line and the old marker from what it keeps, and again only
//! after a write error (a full disk must not take the job down, and the
//! rewrite brings the file back in line with what was logged).
//! Reopening an existing journal appends, with the sequence counter
//! continuing where the previous process stopped, so a
//! killed-and-resumed run leaves one auditable trail.
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
#[cfg(not(feature = "obs-off"))]
use std::fs::{File, OpenOptions};
use std::io;
#[cfg(not(feature = "obs-off"))]
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Default cap on retained events; past it the newest events are
/// counted as dropped and a `journal_truncated` marker line ends the
/// file.
pub const DEFAULT_MAX_EVENTS: usize = 16_384;

const MARKER: &str = "\"event\":\"journal_truncated\"";

#[derive(Debug, Default)]
struct State {
    lines: Vec<String>,
    dropped: u64,
}

/// The journal file as this process writes it: an append handle over a
/// file known to hold `bytes` bytes of retained lines (plus the marker,
/// if any). `None` until the first write of a life, and again after a
/// failed write; the next write then rewrites the whole journal.
#[cfg(not(feature = "obs-off"))]
#[derive(Debug)]
struct Sink {
    file: File,
    bytes: u64,
}

/// Append-only JSONL event sink: one append-mode write per event.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    #[cfg(not(feature = "obs-off"))]
    epoch: Instant,
    #[cfg(not(feature = "obs-off"))]
    max_events: usize,
    #[cfg(not(feature = "obs-off"))]
    flush: Mutex<Option<Sink>>,
    state: Mutex<State>,
}

impl Journal {
    /// Open (or reopen) the journal at `path`, creating parent
    /// directories. Existing event lines are kept, so a resumed run
    /// appends to the prior run's trail; a last line with no `\n`
    /// (torn by a kill mid-append) is dropped.
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
            let bytes = fs::read(path)?;
            let whole = bytes
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1);
            for line in String::from_utf8_lossy(&bytes[..whole]).lines() {
                // The truncation marker is regenerated past the cap;
                // keeping it as a data line would double-count it.
                if !line.trim().is_empty() && !line.contains(MARKER) {
                    lines.push(line.to_string());
                }
            }
        }
        #[cfg(feature = "obs-off")]
        let _ = max_events;
        Ok(Journal {
            path: path.to_path_buf(),
            #[cfg(not(feature = "obs-off"))]
            epoch: Instant::now(),
            #[cfg(not(feature = "obs-off"))]
            max_events,
            #[cfg(not(feature = "obs-off"))]
            flush: Mutex::new(None),
            state: Mutex::new(State { lines, dropped: 0 }),
        })
    }

    /// Path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Start building an event named `name`. Call
    /// [`EventBuilder::log`] to record it.
    pub fn event<'a>(&'a self, name: &str) -> EventBuilder<'a> {
        let mut fields = String::new();
        write_json_str(&mut fields, name);
        EventBuilder {
            #[cfg(not(feature = "obs-off"))]
            journal: self,
            #[cfg(feature = "obs-off")]
            journal: std::marker::PhantomData,
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

    /// Records one event: assigns its sequence number, then appends its
    /// line (or, past the cap, rewrites the marker). Serialized by the
    /// flush lock, so file order is sequence order.
    #[cfg(not(feature = "obs-off"))]
    fn append(&self, t_us: u64, fields: &str) {
        let mut sink = self.flush.lock().expect("journal flush lock poisoned");
        let (text, past_cap) = {
            let mut st = self.state.lock().expect("journal state lock poisoned");
            let seq = st.lines.len() as u64 + st.dropped;
            if st.lines.len() >= self.max_events {
                st.dropped += 1;
                (marker_line(st.dropped), true)
            } else {
                let line = format!("{{\"seq\":{seq},\"t_us\":{t_us},\"event\":{fields}}}");
                let text = format!("{line}\n");
                st.lines.push(line);
                (text, false)
            }
        };
        // Best-effort: a full disk must not take the job down. A failed
        // write drops the handle, and the next write rewrites the file.
        // Each write is one `write_all` of whole lines, so a kill tears
        // at most the last line.
        let written = match sink.as_mut() {
            None => self.rewrite(&mut sink),
            // The new marker replaces the old one at the end of the file.
            Some(s) if past_cap => s
                .file
                .set_len(s.bytes)
                .and_then(|()| s.file.write_all(text.as_bytes())),
            Some(s) => s.file.write_all(text.as_bytes()).map(|()| {
                s.bytes += text.len() as u64;
            }),
        };
        if written.is_err() {
            *sink = None;
        }
    }

    /// Writes the whole journal through `write_atomic` and reopens the
    /// append handle on the result. The caller holds the flush lock.
    #[cfg(not(feature = "obs-off"))]
    fn rewrite(&self, sink: &mut Option<Sink>) -> io::Result<()> {
        let (text, bytes) = {
            let st = self.state.lock().expect("journal state lock poisoned");
            let mut text = String::with_capacity(st.lines.iter().map(|l| l.len() + 1).sum());
            for line in &st.lines {
                text.push_str(line);
                text.push('\n');
            }
            let bytes = text.len() as u64;
            if st.dropped > 0 {
                text.push_str(&marker_line(st.dropped));
            }
            (text, bytes)
        };
        qk_chaos::durable::write_atomic(&self.path, text.as_bytes())?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        *sink = Some(Sink { file, bytes });
        Ok(())
    }

    /// Makes the file hold every logged event. Events are written as
    /// they are logged, so this only writes when none has been yet this
    /// life (creating the file) or when the last write failed.
    #[cfg(not(feature = "obs-off"))]
    pub fn flush(&self) -> io::Result<()> {
        let mut sink = self.flush.lock().expect("journal flush lock poisoned");
        match *sink {
            Some(_) => Ok(()),
            None => self.rewrite(&mut sink),
        }
    }

    /// No-op under `obs-off`.
    #[cfg(feature = "obs-off")]
    pub fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// The line that ends a journal past its cap.
#[cfg(not(feature = "obs-off"))]
fn marker_line(dropped: u64) -> String {
    format!("{{{MARKER},\"dropped\":{dropped}}}\n")
}

/// Incremental event construction; fields serialize in call order.
#[derive(Debug)]
pub struct EventBuilder<'a> {
    #[cfg(not(feature = "obs-off"))]
    journal: &'a Journal,
    #[cfg(feature = "obs-off")]
    journal: std::marker::PhantomData<&'a Journal>,
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
        self.journal.append(t_us, &self.fields);
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
    fn reopen_drops_a_torn_last_line() {
        let dir = tmp_dir("torn");
        let path = dir.join("j.jsonl");
        {
            let j = Journal::open(&path).unwrap();
            j.event("first").log();
            j.event("second").log();
        }
        // A kill mid-append leaves a line with no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"seq\":2,\"t_us\":9,\"eve").unwrap();
        drop(file);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        j.event("third").log();
        let text = fs::read_to_string(&path).unwrap();
        let events: Vec<String> = text
            .lines()
            .map(|l| {
                let v = crate::json::parse(l).unwrap();
                let seq = v.get("seq").unwrap().as_u64().unwrap();
                let event = v.get("event").unwrap().as_str().unwrap().to_string();
                format!("{seq}:{event}")
            })
            .collect();
        assert_eq!(events, ["0:first", "1:second", "2:third"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_append_without_rewriting_the_file() {
        let dir = tmp_dir("append");
        let path = dir.join("j.jsonl");
        let j = Journal::open(&path).unwrap();
        j.event("first").log();
        // A rewrite renames a fresh file onto the name; an append keeps
        // the file the first write created.
        let kept = OpenOptions::new().read(true).open(&path).unwrap();
        let before = fs::read_to_string(&path).unwrap();
        j.event("second").log();
        let mut via_old_handle = String::new();
        io::Read::read_to_string(&mut &kept, &mut via_old_handle).unwrap();
        assert!(via_old_handle.starts_with(&before));
        assert!(via_old_handle.contains("\"event\":\"second\""));
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
        assert_eq!(text.matches("journal_truncated").count(), 1);
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
