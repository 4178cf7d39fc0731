//! Append-only JSONL run journal.
//!
//! A [`RunJournal`] turns a path into a line-oriented sink: every
//! [`append`](RunJournal::append) call writes one line, flushes it,
//! and (when opened so) `fdatasync`s the file, so a journal read
//! mid-run — or after a crash, a kill, or power loss — contains a
//! durable whole record for every append that returned `Ok`. Its one
//! caller is the `benchmark/` crate's `obs.journal_append_us_*` probe,
//! which times an append with and without the per-record `sync_data`.
//!
//! The file is opened in append mode; several processes sharing one
//! journal interleave whole lines, never fragments (POSIX `O_APPEND`
//! writes of a line-sized buffer). A crash *can* still leave a torn
//! final line — the write itself was cut short — so
//! [`RunJournal::open_with`] quarantines such a fragment by
//! terminating it with a newline, and records appended after a crash
//! never concatenate onto the torn tail.
//!
//! This module only writes lines; composing the JSON record is the
//! caller's job ([`json_escape`] covers embedded strings). Records
//! should be self-describing — carry a `"kind"` and a `"v"` version
//! field — so readers can skip what they do not understand.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

/// An append-only, durable JSONL sink.
#[derive(Debug)]
pub struct RunJournal {
    file: Mutex<File>,
    /// Whether each append is followed by `sync_data`.
    sync: bool,
}

impl RunJournal {
    /// Open (creating if absent) the journal at `path` for appending:
    /// `sync` makes every [`append`](RunJournal::append) `sync_data`
    /// after flushing.
    pub fn open_with(path: &Path, sync: bool) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        // Quarantine a torn final line left by a crash: terminate it
        // so the next append starts a fresh line instead of gluing a
        // valid record onto the fragment (losing both).
        let len = file.seek(SeekFrom::End(0))?;
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(RunJournal { file: Mutex::new(file), sync })
    }

    /// Append `record` (one JSON object, no trailing newline) as one
    /// journal line and make it durable (flush, then `sync_data`
    /// unless opted out).
    pub fn append(&self, record: &str) -> std::io::Result<()> {
        let mut line = String::with_capacity(record.len() + 1);
        line.push_str(record);
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())?;
        file.flush()?;
        if self.sync {
            file.sync_data()?;
        }
        Ok(())
    }
}

/// Escape `s` for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qsm-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn appends_whole_lines_and_survives_reopen() {
        let path = temp_path("reopen");
        {
            let j = RunJournal::open_with(&path, true).unwrap();
            j.append(r#"{"v":1,"kind":"a"}"#).unwrap();
        }
        {
            // Reopening appends after the existing record.
            let j = RunJournal::open_with(&path, true).unwrap();
            j.append(r#"{"v":1,"kind":"b"}"#).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec![r#"{"v":1,"kind":"a"}"#, r#"{"v":1,"kind":"b"}"#]);
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_quarantines_a_torn_tail_before_appending() {
        let path = temp_path("quarantine");
        std::fs::write(&path, "{\"v\":1,\"kind\":\"a\"}\n{\"v\":1,\"ki").unwrap();
        {
            let j = RunJournal::open_with(&path, true).unwrap();
            j.append(r#"{"v":1,"kind":"d"}"#).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The fragment sits alone on its own (unparseable) line; the
        // post-crash record is intact rather than glued onto it.
        assert_eq!(lines, vec![r#"{"v":1,"kind":"a"}"#, r#"{"v":1,"ki"#, r#"{"v":1,"kind":"d"}"#]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsynced_journal_still_writes_whole_lines() {
        let path = temp_path("nosync");
        let j = RunJournal::open_with(&path, false).unwrap();
        j.append(r#"{"v":1,"kind":"x"}"#).unwrap();
        drop(j);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1,\"kind\":\"x\"}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_fails_loudly_on_unwritable_path() {
        assert!(RunJournal::open_with(Path::new("/nonexistent-dir/run.jsonl"), true).is_err());
    }

    #[test]
    fn json_escape_covers_controls_and_quotes() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
