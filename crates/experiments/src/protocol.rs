//! The line protocol between the sweep coordinator (`serve`) and its
//! workers (`work`): newline-delimited ASCII frames over TCP.
//!
//! Design constraints, in order:
//!
//! 1. **Idempotence-friendly** — every mutation the protocol can
//!    express (`RESULT`, `FAILED`) names its cell explicitly, so the
//!    coordinator can deduplicate replays and late arrivals by key,
//!    never by connection state.
//! 2. **Strict request/reply alignment** — on the main connection
//!    every request gets exactly one reply, in order. Heartbeats
//!    (`BEAT`) get *no* reply and therefore travel on a dedicated
//!    second connection, so a beat can never desynchronise the
//!    lease/result stream.
//! 3. **Greppable** — frames are single text lines a human can read
//!    off a `tcpdump` or replay with `nc`.
//!
//! Frames (`<...>` fields are space-separated; the *last* field of
//! `RESULT`, `FAILED`, and `REJECT` takes the rest of the line, so
//! JSON records and panic messages need no escaping):
//!
//! ```text
//! worker → coordinator                 coordinator → worker
//! ─────────────────────                ────────────────────
//! HELLO <worker> <experiment> <fps>    WELCOME <lease_ms> | REJECT <reason>
//! LEASE                                CELL <si> <cell> | WAIT <ms> | DONE
//! RESULT <si> <cell> <record-json>     ACK <fresh|dup>
//! FAILED <si> <cell> <message>         ACK <fresh|dup>
//! BEAT <si> <cell>                     (no reply)
//! BYE                                  (no reply; connection closes)
//! ```
//!
//! `<fps>` is the comma-separated list of the plan's grid
//! fingerprints in hex (`-` for an empty plan): the coordinator
//! rejects a worker whose profile would compute different cells, the
//! same guard the journals' grid fingerprint provides on disk.

/// A worker-to-coordinator frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake: who is asking, for which experiment, under which
    /// per-sweep grid fingerprints.
    Hello {
        /// Worker identifier (no spaces; used in lease bookkeeping).
        worker: String,
        /// Experiment name the worker planned.
        experiment: String,
        /// [`crate::sweep::SweepSpec::fingerprint`] per planned sweep.
        fingerprints: Vec<u64>,
    },
    /// Ask for one cell to solve.
    Lease,
    /// Still working on `(si, cell)` — extend the lease.
    Beat {
        /// Sweep position in the plan.
        si: usize,
        /// Canonical cell index.
        cell: usize,
    },
    /// A finished cell's record (the JSON of a `RunRecord`).
    Result {
        /// Sweep position in the plan.
        si: usize,
        /// Canonical cell index.
        cell: usize,
        /// The record as a JSON object, verbatim.
        record: String,
    },
    /// A cell whose solve panicked.
    Failed {
        /// Sweep position in the plan.
        si: usize,
        /// Canonical cell index.
        cell: usize,
        /// The panic payload rendered as a string.
        message: String,
    },
    /// Clean goodbye; the coordinator releases this worker's leases.
    Bye,
}

/// A coordinator-to-worker frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Handshake accepted; leases expire after `lease_ms` without a
    /// beat.
    Welcome {
        /// Lease timeout in milliseconds.
        lease_ms: u64,
    },
    /// Handshake refused (profile mismatch, unknown experiment).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// One leased cell to solve.
    Cell {
        /// Sweep position in the plan.
        si: usize,
        /// Canonical cell index.
        cell: usize,
    },
    /// Nothing leasable right now (all cells leased out); retry after
    /// roughly `ms` milliseconds.
    Wait {
        /// Suggested retry delay in milliseconds.
        ms: u64,
    },
    /// Every cell is complete; the worker should say BYE and exit.
    Done,
    /// A RESULT/FAILED was recorded; `duplicate` when the cell had
    /// already been completed by someone (idempotent replay).
    Ack {
        /// `true` iff this completion was a duplicate.
        duplicate: bool,
    },
}

fn split_head(line: &str) -> (&str, &str) {
    match line.split_once(' ') {
        Some((head, rest)) => (head, rest),
        None => (line, ""),
    }
}

fn parse_two(rest: &str, frame: &str) -> Result<(usize, usize), String> {
    let mut it = rest.split(' ').filter(|s| !s.is_empty());
    let parse = |field: Option<&str>| {
        field.and_then(|f| f.parse::<usize>().ok()).ok_or_else(|| format!("malformed {frame}"))
    };
    let si = parse(it.next())?;
    let cell = parse(it.next())?;
    if it.next().is_some() {
        return Err(format!("malformed {frame}: trailing fields"));
    }
    Ok((si, cell))
}

fn parse_two_rest(rest: &str, frame: &str) -> Result<(usize, usize, String), String> {
    let (si, rest) = split_head(rest);
    let (cell, tail) = split_head(rest);
    let si = si.parse::<usize>().map_err(|_| format!("malformed {frame}"))?;
    let cell = cell.parse::<usize>().map_err(|_| format!("malformed {frame}"))?;
    Ok((si, cell, tail.to_string()))
}

fn render_fingerprints(fps: &[u64]) -> String {
    if fps.is_empty() {
        "-".to_string()
    } else {
        fps.iter().map(|fp| format!("{fp:x}")).collect::<Vec<_>>().join(",")
    }
}

fn parse_fingerprints(text: &str) -> Result<Vec<u64>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|fp| u64::from_str_radix(fp, 16).map_err(|_| format!("bad fingerprint {fp:?}")))
        .collect()
}

impl Request {
    /// Renders the frame as one line (without the trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Hello { worker, experiment, fingerprints } => {
                format!("HELLO {worker} {experiment} {}", render_fingerprints(fingerprints))
            }
            Request::Lease => "LEASE".to_string(),
            Request::Beat { si, cell } => format!("BEAT {si} {cell}"),
            Request::Result { si, cell, record } => format!("RESULT {si} {cell} {record}"),
            Request::Failed { si, cell, message } => format!("FAILED {si} {cell} {message}"),
            Request::Bye => "BYE".to_string(),
        }
    }

    /// Parses one line (trailing newline already stripped).
    pub fn parse(line: &str) -> Result<Self, String> {
        let (head, rest) = split_head(line.trim_end_matches(['\r', '\n']));
        match head {
            "HELLO" => {
                let mut it = rest.split(' ').filter(|s| !s.is_empty());
                let worker = it.next().ok_or("malformed HELLO: missing worker")?.to_string();
                let experiment =
                    it.next().ok_or("malformed HELLO: missing experiment")?.to_string();
                let fingerprints =
                    parse_fingerprints(it.next().ok_or("malformed HELLO: missing fingerprints")?)?;
                if it.next().is_some() {
                    return Err("malformed HELLO: trailing fields".to_string());
                }
                Ok(Request::Hello { worker, experiment, fingerprints })
            }
            "LEASE" if rest.is_empty() => Ok(Request::Lease),
            "BEAT" => {
                let (si, cell) = parse_two(rest, "BEAT")?;
                Ok(Request::Beat { si, cell })
            }
            "RESULT" => {
                let (si, cell, record) = parse_two_rest(rest, "RESULT")?;
                Ok(Request::Result { si, cell, record })
            }
            "FAILED" => {
                let (si, cell, message) = parse_two_rest(rest, "FAILED")?;
                Ok(Request::Failed { si, cell, message })
            }
            "BYE" if rest.is_empty() => Ok(Request::Bye),
            _ => Err(format!("unknown request frame {line:?}")),
        }
    }
}

impl Reply {
    /// Renders the frame as one line (without the trailing newline).
    pub fn render(&self) -> String {
        match self {
            Reply::Welcome { lease_ms } => format!("WELCOME {lease_ms}"),
            Reply::Reject { reason } => format!("REJECT {reason}"),
            Reply::Cell { si, cell } => format!("CELL {si} {cell}"),
            Reply::Wait { ms } => format!("WAIT {ms}"),
            Reply::Done => "DONE".to_string(),
            Reply::Ack { duplicate } => {
                format!("ACK {}", if *duplicate { "dup" } else { "fresh" })
            }
        }
    }

    /// Parses one line (trailing newline already stripped).
    pub fn parse(line: &str) -> Result<Self, String> {
        let (head, rest) = split_head(line.trim_end_matches(['\r', '\n']));
        match head {
            "WELCOME" => rest
                .parse::<u64>()
                .map(|lease_ms| Reply::Welcome { lease_ms })
                .map_err(|_| "malformed WELCOME".to_string()),
            "REJECT" => Ok(Reply::Reject { reason: rest.to_string() }),
            "CELL" => {
                let (si, cell) = parse_two(rest, "CELL")?;
                Ok(Reply::Cell { si, cell })
            }
            "WAIT" => rest
                .parse::<u64>()
                .map(|ms| Reply::Wait { ms })
                .map_err(|_| "malformed WAIT".to_string()),
            "DONE" if rest.is_empty() => Ok(Reply::Done),
            "ACK" => match rest {
                "fresh" => Ok(Reply::Ack { duplicate: false }),
                "dup" => Ok(Reply::Ack { duplicate: true }),
                _ => Err("malformed ACK".to_string()),
            },
            _ => Err(format!("unknown reply frame {line:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let frames = vec![
            Request::Hello {
                worker: "w1".into(),
                experiment: "figure5".into(),
                fingerprints: vec![0xdeadbeef, 7],
            },
            Request::Hello { worker: "w".into(), experiment: "e".into(), fingerprints: vec![] },
            Request::Lease,
            Request::Beat { si: 0, cell: 12 },
            Request::Result {
                si: 1,
                cell: 3,
                record: r#"{"class":"tree","n":10,"alpha":0.5}"#.into(),
            },
            Request::Failed { si: 0, cell: 9, message: "index out of bounds: the len".into() },
            Request::Bye,
        ];
        for frame in frames {
            let line = frame.render();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse(&line).unwrap(), frame, "round-trip of {line:?}");
            assert_eq!(Request::parse(&format!("{line}\n")).unwrap(), frame, "newline tolerated");
        }
    }

    #[test]
    fn replies_round_trip() {
        let frames = vec![
            Reply::Welcome { lease_ms: 15000 },
            Reply::Reject { reason: "grid fingerprints differ: run the same profile".into() },
            Reply::Cell { si: 2, cell: 41 },
            Reply::Wait { ms: 250 },
            Reply::Done,
            Reply::Ack { duplicate: false },
            Reply::Ack { duplicate: true },
        ];
        for frame in frames {
            let line = frame.render();
            assert_eq!(Reply::parse(&line).unwrap(), frame, "round-trip of {line:?}");
        }
    }

    #[test]
    fn rest_of_line_fields_keep_their_spaces() {
        let msg = "panicked at 'assertion failed: a == b', src/lib.rs:1:1";
        let frame = Request::parse(&format!("FAILED 0 3 {msg}")).unwrap();
        assert_eq!(frame, Request::Failed { si: 0, cell: 3, message: msg.into() });
        let reason = "experiment 'figure5' is not being served here";
        assert_eq!(
            Reply::parse(&format!("REJECT {reason}")).unwrap(),
            Reply::Reject { reason: reason.into() }
        );
    }

    /// Frame keywords, field shapes and awkward characters that
    /// arbitrary lines are assembled from.
    const TOKENS: [&str; 24] = [
        "HELLO",
        "LEASE",
        "BEAT",
        "RESULT",
        "FAILED",
        "BYE",
        "WELCOME",
        "REJECT",
        "CELL",
        "WAIT",
        "DONE",
        "ACK",
        "fresh",
        "dup",
        "-",
        ",",
        "0",
        "7",
        "+3",
        "18446744073709551616",
        "deadbeef",
        "{\"n\":10}",
        "α",
        "\r\n",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Any line parses to `Ok` or `Err` without panicking, as a
        /// request and as a reply; a line that parses renders back to
        /// a line that parses to the same frame.
        #[test]
        fn arbitrary_lines_parse_or_fail_without_panicking(
            parts in proptest::collection::vec(
                (0usize..TOKENS.len() + 1, proptest::prelude::any::<u32>(), 0usize..3),
                0..8,
            ),
        ) {
            let mut line = String::new();
            for (token, code, sep) in parts {
                match TOKENS.get(token) {
                    Some(t) => line.push_str(t),
                    None => line.extend(char::from_u32(code % 0x3000)),
                }
                line.push_str(["", " ", "  "][sep]);
            }
            if let Ok(frame) = Request::parse(&line) {
                proptest::prop_assert_eq!(Request::parse(&frame.render()), Ok(frame));
            }
            if let Ok(frame) = Reply::parse(&line) {
                proptest::prop_assert_eq!(Reply::parse(&frame.render()), Ok(frame));
            }
        }
    }

    #[test]
    fn garbage_is_rejected_not_misparsed() {
        for bad in [
            "",
            "NOPE",
            "LEASE extra",
            "BEAT 1",
            "BEAT x y",
            "BEAT 1 2 3",
            "RESULT 1",
            "HELLO onlyworker",
            "HELLO w e xyz",
            "BYE now",
        ] {
            assert!(Request::parse(bad).is_err(), "request {bad:?} must be rejected");
        }
        for bad in ["", "WELCOME", "WELCOME x", "CELL 1", "ACK maybe", "DONE done"] {
            assert!(Reply::parse(bad).is_err(), "reply {bad:?} must be rejected");
        }
    }
}
