//! Wire protocol: length-prefixed frames and the command grammar.
//!
//! A frame is an ASCII decimal byte length, a newline, then exactly that
//! many bytes of UTF-8 payload. A request payload holds one command per
//! line (a *batch*); the response payload holds exactly one line per
//! command, in order, each starting with `OK` or `ERR`. The length prefix
//! makes batches self-delimiting without escaping, and keeping the payload
//! line-oriented text keeps sessions scriptable and debuggable by hand.
//!
//! Command grammar (whitespace-separated tokens):
//!
//! ```text
//! LOAD   <name> <path> [lazy:<k> | delta:<k>]   load a dataset file (default
//!                                               delta:64; legacy `local[:K]` = delta:K)
//! TOPK   <name> <k> [engine]                    top-k (engine: auto | registry name |
//!                                               approx:EPS,DELTA — answered exactly, as auto)
//! SCORE  <name> <v>...                          exact CB of named vertices
//! COMMON <name> <u> <v>                         common neighbors
//! UPDATE <name> [seq=<e>] (+u,v | -u,v)...      apply an edge-op batch; `seq` is an
//!                                               idempotency token (the epoch the client
//!                                               expects to advance from — retries of an
//!                                               acked batch are re-acked, not reapplied)
//! STATS  <name>                                 dataset counters
//! LIST                                          catalog contents
//! DROP   <name>                                 remove a dataset (retire + delete WAL)
//! COMPACT <name>                                force a snapshot compaction now
//! PING                                          liveness probe
//! METRICS                                       Prometheus text exposition of every
//!                                               registered metric (multi-line reply)
//! SLOWLOG                                       drain the slow-query ring (multi-line)
//! ```
//!
//! Any command line may carry a `DEADLINE <ms>` prefix, e.g.
//! `DEADLINE 250 TOPK g 8`: the server abandons the request (with
//! `ERR deadline`) once that many milliseconds have elapsed since
//! dequeue — enforced both before execution starts and cooperatively at
//! the engines' compute checkpoints.
//!
//! Any command line may also carry a `TRACE` prefix (before `DEADLINE`
//! when both are present), e.g. `TRACE DEADLINE 250 TOPK g 8`: the reply
//! line gains a trailing ` trace=total:…us,parse:…us,…` token with the
//! request's span breakdown and engine work counters.
//!
//! `METRICS` and `SLOWLOG` are the two replies that span multiple lines,
//! so each must be the **only** command line in its frame — batching
//! would break the one-response-line-per-command pairing every other
//! command relies on.

use crate::catalog::Mode;
use egobtw_dynamic::EdgeOp;
use egobtw_graph::VertexId;
use std::io::{self, BufRead, Write};

/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation happens (a garbage prefix must not OOM the
/// server).
pub const MAX_FRAME: usize = 16 << 20;

/// Upper bound on ops in one `UPDATE` batch, enforced at parse time with
/// a clear `ERR` (mirroring [`MAX_FRAME`]): one batch is one WAL record
/// and one epoch publish under the writer lock, so an unbounded batch
/// would let a single client monopolize a shard writer and balloon WAL
/// records far past [`crate::wal::Wal`]'s record cap.
pub const MAX_UPDATE_OPS: usize = 4096;

/// Writes one frame: decimal length, `\n`, payload. Assembled into one
/// buffer and written with a single call, so a frame is one TCP segment
/// on the wire (two small writes through a Nagle-enabled socket cost a
/// delayed-ACK round trip per frame).
pub fn write_frame<W: Write>(mut w: W, payload: &str) -> io::Result<()> {
    let mut buf = String::with_capacity(payload.len() + 12);
    buf.push_str(&payload.len().to_string());
    buf.push('\n');
    buf.push_str(payload);
    w.write_all(buf.as_bytes())?;
    w.flush()
}

/// Longest accepted length-prefix line, newline included (24 digits is
/// far beyond any length [`MAX_FRAME`] admits). The prefix read is capped
/// at this so a peer streaming junk with no newline cannot grow the line
/// buffer without bound.
const MAX_LEN_LINE: u64 = 24;

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; a connection dying mid-frame is an error.
pub fn read_frame<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut len_line = String::new();
    // UFCS pins `take` to the `&mut R` impl (plain `.take()` would
    // auto-deref and try to move `R` itself out of the reference).
    if <&mut R as io::Read>::take(&mut *r, MAX_LEN_LINE).read_line(&mut len_line)? == 0 {
        return Ok(None);
    }
    if !len_line.ends_with('\n') {
        // Either the peer is streaming digits with no terminator (cap
        // hit) or the connection died inside the prefix — a prefix at
        // EOF must not round down to a phantom frame.
        return Err(io::Error::new(
            if len_line.len() as u64 == MAX_LEN_LINE {
                io::ErrorKind::InvalidData
            } else {
                io::ErrorKind::UnexpectedEof
            },
            "unterminated frame length prefix",
        ));
    }
    let len: usize = len_line
        .trim()
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad frame length prefix"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// One parsed request command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Load a dataset from an edge-list or binary-snapshot file.
    Load {
        /// Catalog name to register under.
        name: String,
        /// Filesystem path; the format is sniffed from the magic bytes.
        path: String,
        /// Maintainer mode.
        mode: Mode,
    },
    /// Top-k query.
    Topk {
        /// Dataset name.
        name: String,
        /// How many entries.
        k: usize,
        /// `auto` (maintained index / cache / default engine) or a
        /// registry engine name such as `core::compute_all`.
        engine: String,
    },
    /// Exact ego-betweenness of specific vertices.
    Score {
        /// Dataset name.
        name: String,
        /// Vertices to score.
        vertices: Vec<VertexId>,
    },
    /// Common-neighbor query.
    Common {
        /// Dataset name.
        name: String,
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Apply a batch of edge updates; publishes one new epoch.
    Update {
        /// Dataset name.
        name: String,
        /// The ops, in order.
        ops: Vec<EdgeOp>,
        /// Idempotency token: the epoch the client expects to advance
        /// from. `None` keeps the original at-least-once semantics.
        seq: Option<u64>,
    },
    /// Dataset counters (size, epoch, cache hit rates, …).
    Stats {
        /// Dataset name.
        name: String,
    },
    /// List the catalog.
    List,
    /// Drop a dataset.
    Drop {
        /// Dataset name.
        name: String,
    },
    /// Force a snapshot compaction of a persistent dataset.
    Compact {
        /// Dataset name.
        name: String,
    },
    /// Liveness probe; replies `OK pong`.
    Ping,
    /// Prometheus text exposition of every registered metric. Multi-line
    /// reply: must be the only command line in its frame.
    Metrics,
    /// Drain the slow-query ring. Multi-line reply: must be the only
    /// command line in its frame.
    Slowlog,
}

fn parse_vertex(tok: &str) -> Result<VertexId, String> {
    tok.parse::<VertexId>()
        .map_err(|_| format!("bad vertex id {tok:?}"))
}

fn parse_op(tok: &str) -> Result<EdgeOp, String> {
    let (insert, rest) = if let Some(r) = tok.strip_prefix('+') {
        (true, r)
    } else if let Some(r) = tok.strip_prefix('-') {
        (false, r)
    } else {
        return Err(format!("bad op {tok:?}: must start with + or -"));
    };
    let (us, vs) = rest
        .split_once(',')
        .ok_or_else(|| format!("bad op {tok:?}: expected +u,v or -u,v"))?;
    let (u, v) = (parse_vertex(us)?, parse_vertex(vs)?);
    Ok(if insert {
        EdgeOp::Insert(u, v)
    } else {
        EdgeOp::Delete(u, v)
    })
}

/// Parses one command line. Verbs are case-sensitive uppercase, matching
/// the grammar in the module docs.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let mut it = line.split_whitespace();
    let verb = it.next().ok_or("empty command")?;
    let cmd = match verb {
        "LOAD" => {
            let name = it.next().ok_or("LOAD needs a name")?.to_string();
            let path = it.next().ok_or("LOAD needs a path")?.to_string();
            let mode = match it.next() {
                Some(m) => Mode::parse(m)?,
                None => Mode::default(),
            };
            Command::Load { name, path, mode }
        }
        "TOPK" => {
            let name = it.next().ok_or("TOPK needs a name")?.to_string();
            let k = it
                .next()
                .ok_or("TOPK needs k")?
                .parse::<usize>()
                .map_err(|e| format!("bad k: {e}"))?;
            // The engine name is the rest of the line: registry names can
            // contain single spaces (`core::opt_search(θ=1.05, degree-relabel)`).
            let rest: Vec<&str> = it.by_ref().collect();
            let engine = if rest.is_empty() {
                "auto".to_string()
            } else {
                rest.join(" ")
            };
            Command::Topk { name, k, engine }
        }
        "SCORE" => {
            let name = it.next().ok_or("SCORE needs a name")?.to_string();
            let vertices: Vec<VertexId> =
                it.by_ref().map(parse_vertex).collect::<Result<_, _>>()?;
            if vertices.is_empty() {
                return Err("SCORE needs at least one vertex".into());
            }
            Command::Score { name, vertices }
        }
        "COMMON" => {
            let name = it.next().ok_or("COMMON needs a name")?.to_string();
            let u = parse_vertex(it.next().ok_or("COMMON needs u")?)?;
            let v = parse_vertex(it.next().ok_or("COMMON needs v")?)?;
            Command::Common { name, u, v }
        }
        "UPDATE" => {
            let name = it.next().ok_or("UPDATE needs a name")?.to_string();
            let mut it = it.peekable();
            let seq = match it.peek().and_then(|tok| tok.strip_prefix("seq=")) {
                Some(v) => {
                    let s = v
                        .parse::<u64>()
                        .map_err(|_| format!("bad seq token {v:?}"))?;
                    it.next();
                    Some(s)
                }
                None => None,
            };
            let ops: Vec<EdgeOp> = it.by_ref().map(parse_op).collect::<Result<_, _>>()?;
            if ops.is_empty() {
                return Err("UPDATE needs at least one op".into());
            }
            if ops.len() > MAX_UPDATE_OPS {
                return Err(format!(
                    "UPDATE batch of {} ops exceeds the {MAX_UPDATE_OPS}-op cap \
                     (split it into smaller batches)",
                    ops.len()
                ));
            }
            return Ok(Command::Update { name, ops, seq });
        }
        "STATS" => Command::Stats {
            name: it.next().ok_or("STATS needs a name")?.to_string(),
        },
        "LIST" => Command::List,
        "DROP" => Command::Drop {
            name: it.next().ok_or("DROP needs a name")?.to_string(),
        },
        "COMPACT" => Command::Compact {
            name: it.next().ok_or("COMPACT needs a name")?.to_string(),
        },
        "PING" => Command::Ping,
        "METRICS" => Command::Metrics,
        "SLOWLOG" => Command::Slowlog,
        other => return Err(format!("unknown verb {other:?}")),
    };
    // Variadic commands (SCORE, UPDATE) drained the iterator above; every
    // fixed-arity command must have consumed the whole line too.
    if it.next().is_some() {
        return Err(format!("trailing tokens after {verb}"));
    }
    Ok(cmd)
}

/// Strips an optional `DEADLINE <ms>` prefix from a command line.
///
/// Returns the millisecond budget (if present) and the command text that
/// follows it. Lines without the prefix pass through untouched, so the
/// prefix composes with every verb. A `DEADLINE` token with a malformed
/// budget or no trailing command is an error — it must never be silently
/// reinterpreted as a verb.
pub fn split_deadline(line: &str) -> Result<(Option<u64>, &str), String> {
    let trimmed = line.trim_start();
    let rest = match trimmed.strip_prefix("DEADLINE") {
        Some(r) if r.starts_with(char::is_whitespace) => r.trim_start(),
        // A bare `DEADLINE` is the prefix with its operands missing.
        Some("") => return Err("DEADLINE needs a millisecond budget followed by a command".into()),
        // `DEADLINEX …` is not the prefix; let parse_command reject it.
        _ => return Ok((None, line)),
    };
    let (ms_tok, cmd) = rest
        .split_once(char::is_whitespace)
        .ok_or("DEADLINE needs a millisecond budget followed by a command")?;
    let ms = ms_tok
        .parse::<u64>()
        .map_err(|_| format!("bad DEADLINE budget {ms_tok:?}"))?;
    if cmd.trim().is_empty() {
        return Err("DEADLINE needs a command after the budget".into());
    }
    Ok((Some(ms), cmd))
}

/// Strips an optional `TRACE` prefix from a command line, mirroring
/// [`split_deadline`]'s semantics: lines without the prefix pass through
/// untouched, a bare `TRACE` is an error (never silently a verb), and
/// `TRACEX …` is not the prefix. The flag asks the service to append a
/// ` trace=…` span-breakdown token to the reply line.
pub fn split_trace(line: &str) -> Result<(bool, &str), String> {
    let trimmed = line.trim_start();
    match trimmed.strip_prefix("TRACE") {
        Some(r) if r.starts_with(char::is_whitespace) => {
            let rest = r.trim_start();
            if rest.is_empty() {
                return Err("TRACE needs a command to trace".into());
            }
            Ok((true, rest))
        }
        // A bare `TRACE` is the prefix with its command missing.
        Some("") => Err("TRACE needs a command to trace".into()),
        // `TRACEX …` is not the prefix; let parse_command reject it.
        _ => Ok((false, line)),
    }
}

/// Renders score entries as the wire form `v:score,v:score,…`. Scores use
/// Rust's shortest-roundtrip `f64` formatting, so parsing them back is
/// exact.
pub fn format_entries(entries: &[(VertexId, f64)]) -> String {
    let mut out = String::new();
    for (i, (v, s)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v}:{s}"));
    }
    out
}

/// Parses the wire form produced by [`format_entries`]. An empty string is
/// an empty list.
pub fn parse_entries(text: &str) -> Result<Vec<(VertexId, f64)>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|item| {
            let (v, s) = item
                .split_once(':')
                .ok_or_else(|| format!("bad entry {item:?}"))?;
            Ok((
                parse_vertex(v)?,
                s.parse::<f64>().map_err(|_| format!("bad score {s:?}"))?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frame_roundtrip_including_empty_and_unicode() {
        for payload in ["", "TOPK g 5", "LIST\nPING", "héllo ↑"] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            let mut r = BufReader::new(buf.as_slice());
            assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(payload));
            assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after frame");
        }
    }

    #[test]
    fn frames_concatenate() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PING").unwrap();
        write_frame(&mut buf, "LIST").unwrap();
        let mut r = BufReader::new(buf.as_slice());
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("PING"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("LIST"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn frame_rejects_garbage_prefix_oversize_and_truncation() {
        let mut r = BufReader::new("x\nabc".as_bytes());
        assert!(read_frame(&mut r).is_err());
        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut r = BufReader::new(huge.as_bytes());
        assert!(read_frame(&mut r).is_err());
        let mut r = BufReader::new("10\nshort".as_bytes());
        assert!(read_frame(&mut r).is_err(), "mid-frame EOF is an error");
    }

    #[test]
    fn frame_prefix_read_is_bounded() {
        // A peer streaming digits with no newline must be rejected after
        // MAX_LEN_LINE bytes, not buffered indefinitely.
        let endless = "9".repeat(4096);
        let mut r = BufReader::new(endless.as_bytes());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        // A newline-free prefix *shorter* than the cap is a connection
        // that died mid-prefix: an EOF error, never a phantom frame
        // (an empty payload's prefix cut at `0` used to slip through).
        let mut r = BufReader::new("123".as_bytes());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        let mut r = BufReader::new("0".as_bytes());
        assert!(read_frame(&mut r).is_err(), "cut empty-frame prefix");
    }

    #[test]
    fn parses_each_verb() {
        assert_eq!(
            parse_command("LOAD g /tmp/x.snap lazy:8").unwrap(),
            Command::Load {
                name: "g".into(),
                path: "/tmp/x.snap".into(),
                mode: Mode::Lazy { k: 8 },
            }
        );
        assert_eq!(
            parse_command("LOAD g /tmp/x.snap delta:4").unwrap(),
            Command::Load {
                name: "g".into(),
                path: "/tmp/x.snap".into(),
                mode: Mode::Delta { k: 4 },
            }
        );
        assert_eq!(
            parse_command("TOPK g 5").unwrap(),
            Command::Topk {
                name: "g".into(),
                k: 5,
                engine: "auto".into()
            }
        );
        assert_eq!(
            parse_command("TOPK g 5 core::compute_all").unwrap(),
            Command::Topk {
                name: "g".into(),
                k: 5,
                engine: "core::compute_all".into()
            }
        );
        assert_eq!(
            parse_command("SCORE g 1 2 3").unwrap(),
            Command::Score {
                name: "g".into(),
                vertices: vec![1, 2, 3]
            }
        );
        assert_eq!(
            parse_command("COMMON g 0 33").unwrap(),
            Command::Common {
                name: "g".into(),
                u: 0,
                v: 33
            }
        );
        assert_eq!(
            parse_command("UPDATE g +1,2 -0,4").unwrap(),
            Command::Update {
                name: "g".into(),
                ops: vec![EdgeOp::Insert(1, 2), EdgeOp::Delete(0, 4)],
                seq: None,
            }
        );
        assert_eq!(
            parse_command("UPDATE g seq=17 +1,2").unwrap(),
            Command::Update {
                name: "g".into(),
                ops: vec![EdgeOp::Insert(1, 2)],
                seq: Some(17),
            }
        );
        assert_eq!(parse_command("LIST").unwrap(), Command::List);
        assert_eq!(parse_command("PING").unwrap(), Command::Ping);
        assert_eq!(parse_command("METRICS").unwrap(), Command::Metrics);
        assert_eq!(parse_command("SLOWLOG").unwrap(), Command::Slowlog);
        assert_eq!(
            parse_command("  STATS   g  ").unwrap(),
            Command::Stats { name: "g".into() }
        );
        assert_eq!(
            parse_command("DROP g").unwrap(),
            Command::Drop { name: "g".into() }
        );
        assert_eq!(
            parse_command("COMPACT g").unwrap(),
            Command::Compact { name: "g".into() }
        );
    }

    #[test]
    fn rejects_malformed_commands() {
        for bad in [
            "",
            "  ",
            "NOPE g",
            "TOPK g",
            "TOPK g five",
            "SCORE g",
            "SCORE g -1",
            "COMMON g 1",
            "COMMON g 1 2 3",
            "UPDATE g",
            "UPDATE g 1,2",
            "UPDATE g +1;2",
            "UPDATE g +1,x",
            "UPDATE g seq=17",
            "UPDATE g seq=banana +1,2",
            "UPDATE g +1,2 seq=17",
            "LOAD g",
            "LOAD g p weird-mode",
            "LIST extra",
            "DROP",
            "COMPACT",
            "COMPACT g extra",
            "METRICS extra",
            "SLOWLOG g",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn update_batch_cap_boundary() {
        let line = |n: usize| {
            let mut s = String::from("UPDATE g");
            for i in 0..n {
                s.push_str(&format!(" +{i},{}", i + 1));
            }
            s
        };
        match parse_command(&line(MAX_UPDATE_OPS)).unwrap() {
            Command::Update { ops, .. } => assert_eq!(ops.len(), MAX_UPDATE_OPS),
            other => panic!("{other:?}"),
        }
        let err = parse_command(&line(MAX_UPDATE_OPS + 1)).unwrap_err();
        assert!(err.contains("4096-op cap"), "{err}");
    }

    #[test]
    fn deadline_prefix_splits_and_rejects() {
        assert_eq!(
            split_deadline("DEADLINE 250 TOPK g 8").unwrap(),
            (Some(250), "TOPK g 8")
        );
        assert_eq!(split_deadline("TOPK g 8").unwrap(), (None, "TOPK g 8"));
        // Not the prefix: parse_command gets to reject the unknown verb.
        assert_eq!(
            split_deadline("DEADLINES 1 PING").unwrap(),
            (None, "DEADLINES 1 PING")
        );
        for bad in [
            "DEADLINE",
            "DEADLINE 250",
            "DEADLINE soon PING",
            "DEADLINE 250  ",
        ] {
            assert!(split_deadline(bad).is_err(), "{bad:?}");
        }
        // The split output feeds straight into parse_command.
        let (ms, rest) = split_deadline("DEADLINE 10 PING").unwrap();
        assert_eq!(ms, Some(10));
        assert_eq!(parse_command(rest).unwrap(), Command::Ping);
    }

    #[test]
    fn trace_prefix_splits_and_rejects() {
        assert_eq!(split_trace("TRACE TOPK g 8").unwrap(), (true, "TOPK g 8"));
        assert_eq!(split_trace("TOPK g 8").unwrap(), (false, "TOPK g 8"));
        // TRACE composes in front of DEADLINE.
        let (traced, rest) = split_trace("TRACE DEADLINE 250 TOPK g 8").unwrap();
        assert!(traced);
        assert_eq!(split_deadline(rest).unwrap(), (Some(250), "TOPK g 8"));
        // Not the prefix: parse_command gets to reject the unknown verb.
        assert_eq!(
            split_trace("TRACER 1 PING").unwrap(),
            (false, "TRACER 1 PING")
        );
        for bad in ["TRACE", "TRACE   ", "  TRACE"] {
            assert!(split_trace(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn entries_roundtrip() {
        let entries = vec![(3u32, 11.0), (7, 9.5), (0, 1.0 / 3.0)];
        let wire = format_entries(&entries);
        assert_eq!(parse_entries(&wire).unwrap(), entries);
        assert_eq!(parse_entries("").unwrap(), vec![]);
        assert!(parse_entries("3:").is_err());
        assert!(parse_entries("3").is_err());
    }
}
