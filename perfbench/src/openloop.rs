//! Open-loop load generation over pipelined keep-alive connections.
//!
//! Send times are fixed in advance from the seed and the rate (Poisson
//! arrivals: independent users), so a slow server receives the same
//! load as a fast one and its queue can grow. Each request's latency is
//! counted from its *scheduled* send time, which charges a stall to
//! every request that was due during it.
//!
//! Connection `c` of `n` carries shots `c, c + n, c + 2n, …` and is
//! driven by one thread that writes each request when it falls due and
//! reads responses in between, so threads and connections both equal
//! `n`. A connection never has more requests in flight than the
//! server's pipeline depth; a request held back by that cap was delayed
//! by the server's backlog, not by the generator, and is excluded from
//! the generator's lateness.
//!
//! While few requests are in flight the threads busy-poll their
//! non-blocking sockets instead of sleeping until the next send: on a
//! virtual machine a sleeping generator lets the hypervisor park the
//! CPU, and waking a parked CPU takes from 0.1 ms to over 10 ms, which
//! would land in the measured latency and vary with the load of other
//! guests. Polling yields the CPU, so the server's threads run whenever
//! they are ready; with more in flight the server keeps the CPUs awake
//! and the threads block in `read`.

use crate::rng::Rng;
use crate::stats::Summary;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Requests in flight on a connection from which the generator blocks
/// in `read` instead of polling.
const BUSY_INFLIGHT: usize = 4;
/// How long a connection may make no progress before the phase fails.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// One scheduled request: when it is due and which request it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shot {
    /// Due time, nanoseconds after the phase starts.
    pub at_ns: u64,
    /// Index into the phase's request table.
    pub req: usize,
}

/// Poisson arrival times at `rate` per second over `seconds`, from
/// `seed`.
pub fn poisson_times(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x5c4e_d01e);
    let end = seconds * 1e9;
    let mut t = 0.0;
    let mut times = Vec::with_capacity((rate * seconds * 1.1) as usize + 1);
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= end {
            return times;
        }
        times.push(t as u64);
    }
}

/// Cache disposition from the `x-actfort-cache` response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTag {
    /// No header (writes, errors).
    None,
    /// Served from the response cache.
    Hit,
    /// Computed.
    Miss,
}

/// What happened to one shot.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// When the request was written, nanoseconds after the phase start.
    pub sent_ns: u64,
    /// When its response was complete.
    pub done_ns: u64,
    /// Whether the pipeline cap held the request past its due time.
    pub held: bool,
    /// HTTP status.
    pub status: u16,
    /// Cache disposition.
    pub cache: CacheTag,
    /// The `generation` the body names (0 when it names none).
    pub generation: u64,
    /// FNV-1a hash of [`body_tail`] (0 when hashing is off).
    pub hash: u64,
    /// The body, when the caller asked to keep it or the status is not 200.
    pub body: Option<Vec<u8>>,
}

/// Per-phase options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Hash every body (for the identical-bytes check).
    pub hash: bool,
    /// Keep every `keep_every`-th body (0 keeps none).
    pub keep_every: usize,
    /// Maximum requests in flight per connection.
    pub max_inflight: usize,
}

/// Runs one phase: sends `shots` (sorted by due time) over `conns`,
/// with `wires[shot.req]` as each request's bytes. Returns one outcome
/// per shot, in shot order.
///
/// # Errors
///
/// Propagates socket errors, a closed connection, or a connection that
/// makes no progress for [`STALL_LIMIT`].
pub fn run_phase<W: AsRef<[u8]> + Sync>(
    conns: &mut [TcpStream],
    shots: &[Shot],
    wires: &[W],
    opts: Options,
) -> io::Result<Vec<Outcome>> {
    let n = conns.len();
    // Start slightly in the future so every thread is running at t=0.
    let epoch = Instant::now() + Duration::from_millis(2);
    let per_conn: Vec<io::Result<Vec<Outcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<(usize, Shot)> = shots
                    .iter()
                    .copied()
                    .enumerate()
                    .skip(c)
                    .step_by(n)
                    .collect();
                scope.spawn(move || drive(stream, epoch, &mine, wires, opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut merged: Vec<Option<Outcome>> = vec![None; shots.len()];
    for (c, outcomes) in per_conn.into_iter().enumerate() {
        for (k, outcome) in outcomes?.into_iter().enumerate() {
            merged[c + k * n] = Some(outcome);
        }
    }
    Ok(merged
        .into_iter()
        .map(|o| o.expect("every shot has an outcome"))
        .collect())
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

fn drive<W: AsRef<[u8]>>(
    stream: &mut TcpStream,
    epoch: Instant,
    mine: &[(usize, Shot)],
    wires: &[W],
    opts: Options,
) -> io::Result<Vec<Outcome>> {
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(mine.len());
    // held[k]: shot k fell due while the pipeline cap was full.
    let mut held = vec![false; mine.len()];
    let mut held_upto = 0usize;
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut carry: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut out: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    stream.set_nonblocking(true)?;
    while next < mine.len() || !inflight.is_empty() {
        // Write every due request the pipeline cap admits, in one write.
        let now = since(epoch);
        out.clear();
        let first = next;
        while next < mine.len() && mine[next].1.at_ns <= now && inflight.len() < opts.max_inflight {
            out.extend_from_slice(wires[mine[next].1.req].as_ref());
            inflight.push_back(next);
            next += 1;
        }
        if !out.is_empty() {
            write_out(stream, &out)?;
            let sent_ns = since(epoch);
            outcomes.extend((first..next).map(|k| Outcome {
                sent_ns,
                done_ns: 0,
                held: held[k],
                status: 0,
                cache: CacheTag::None,
                generation: 0,
                hash: 0,
                body: None,
            }));
        }
        if next < mine.len() && mine[next].1.at_ns <= now {
            // The cap is full: every due request now waits on the server.
            held_upto = held_upto.max(next);
            while held_upto < mine.len() && mine[held_upto].1.at_ns <= now {
                held[held_upto] = true;
                held_upto += 1;
            }
        }
        if inflight.is_empty() {
            std::thread::yield_now();
            continue;
        }
        // With several requests in flight the server is busy, so its CPUs
        // are awake: block until a response or the next send instead of
        // taking CPU from the server's threads.
        let busy = inflight.len() >= BUSY_INFLIGHT;
        let wait_ns = if next < mine.len() && inflight.len() < opts.max_inflight {
            mine[next].1.at_ns.saturating_sub(since(epoch))
        } else {
            1_000_000
        };
        if busy && wait_ns > 20_000 {
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(Duration::from_nanos(wait_ns)))?;
        }
        let got = stream.read(&mut buf);
        if busy && wait_ns > 20_000 {
            stream.set_nonblocking(true)?;
        }
        match got {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-phase",
                ))
            }
            Ok(got) => {
                carry.extend_from_slice(&buf[..got]);
                last_progress = Instant::now();
                let done_ns = since(epoch);
                let mut consumed = 0;
                while let Some((head, body_start, end)) = parse_head(&carry[consumed..])? {
                    let k = inflight.pop_front().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "response without a request")
                    })?;
                    let body = &carry[consumed + body_start..consumed + end];
                    let o = &mut outcomes[k];
                    o.done_ns = done_ns;
                    o.status = head.status;
                    o.cache = head.cache;
                    o.generation = generation_of(body);
                    if opts.hash {
                        o.hash = fnv1a(body_tail(body));
                    }
                    // Error bodies are always kept, for the report.
                    if head.status != 200
                        || (opts.keep_every > 0 && mine[k].0.is_multiple_of(opts.keep_every))
                    {
                        o.body = Some(body.to_vec());
                    }
                    consumed += end;
                }
                carry.drain(..consumed);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_progress.elapsed() > STALL_LIMIT {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "server stalled"));
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.set_nonblocking(false)?;
    Ok(outcomes)
}

/// Writes all of `bytes` to a non-blocking stream.
fn write_out(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    let started = Instant::now();
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection closed",
                ))
            }
            Ok(n) => bytes = &bytes[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                if started.elapsed() > STALL_LIMIT {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server stopped reading",
                    ));
                }
                std::thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

struct Head {
    status: u16,
    cache: CacheTag,
}

/// Parses one response head from the front of `buf`: returns the head,
/// where its body starts and where the response ends, or `None` while
/// incomplete.
fn parse_head(buf: &[u8]) -> io::Result<Option<(Head, usize, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut cache = CacheTag::None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("x-actfort-cache") {
            cache = match value {
                "hit" => CacheTag::Hit,
                "miss" => CacheTag::Miss,
                _ => CacheTag::None,
            };
        }
    }
    let length = length.ok_or_else(|| bad("response lacks content-length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((
        Head { status, cache },
        body_start,
        body_start + length,
    )))
}

/// The `generation` a response body names: every analysis and reload
/// body starts with `{"generation":N`.
pub fn generation_of(body: &[u8]) -> u64 {
    body.strip_prefix(b"{\"generation\":")
        .map(|rest| {
            rest.iter()
                .take_while(|b| b.is_ascii_digit())
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'))
        })
        .unwrap_or(0)
}

/// Body bytes after the `{"generation":N` prefix: equal tails mean
/// equal bodies up to the generation number.
pub fn body_tail(body: &[u8]) -> &[u8] {
    match body.strip_prefix(b"{\"generation\":") {
        Some(rest) => &rest[rest.iter().take_while(|b| b.is_ascii_digit()).count()..],
        None => body,
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Generator lateness (actual minus scheduled send) of the requests the
/// generator alone was responsible for: held requests waited on the
/// server and are excluded. `None` when every request was held.
pub fn lateness_us(shots: &[Shot], outcomes: &[Outcome]) -> Option<Summary> {
    let late: Vec<f64> = shots
        .iter()
        .zip(outcomes)
        .filter(|(_, o)| !o.held)
        .map(|(s, o)| o.sent_ns.saturating_sub(s.at_ns) as f64 / 1e3)
        .collect();
    (!late.is_empty()).then(|| Summary::of(&late))
}

/// Latency of each shot from its scheduled send, milliseconds.
pub fn latency_ms(shot: &Shot, outcome: &Outcome) -> f64 {
    outcome.done_ns.saturating_sub(shot.at_ns) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let a = poisson_times(7, 1000.0, 2.0);
        assert_eq!(a, poisson_times(7, 1000.0, 2.0));
        assert_ne!(a, poisson_times(8, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // Poisson count at 2000 expected arrivals: well within 5 sigma.
        assert!(
            (a.len() as f64 - 2000.0).abs() < 5.0 * 2000f64.sqrt(),
            "{}",
            a.len()
        );
    }

    fn outcome(sent_ns: u64, held: bool) -> Outcome {
        Outcome {
            sent_ns,
            done_ns: sent_ns + 1_000,
            held,
            status: 200,
            cache: CacheTag::None,
            generation: 0,
            hash: 0,
            body: None,
        }
    }

    #[test]
    fn lateness_excludes_requests_held_by_the_server() {
        let shots: Vec<Shot> = (0..30)
            .map(|i| Shot {
                at_ns: i * 1_000_000,
                req: 0,
            })
            .collect();
        let mut outcomes: Vec<Outcome> = shots
            .iter()
            .map(|s| outcome(s.at_ns + 5_000, false))
            .collect();
        // Two requests waited 9 ms on a full pipeline: server backlog.
        outcomes[3] = outcome(shots[3].at_ns + 9_000_000, true);
        outcomes[4] = outcome(shots[4].at_ns + 8_000_000, true);
        let late = lateness_us(&shots, &outcomes).expect("unheld requests exist");
        assert_eq!(late.n, 28);
        assert_eq!(late.median, 5.0);
        assert_eq!(late.tail, 5.0);
        // Their latency still counts from the schedule.
        assert_eq!(latency_ms(&shots[3], &outcomes[3]), 9.001);
        let all_held: Vec<Outcome> = shots.iter().map(|s| outcome(s.at_ns, true)).collect();
        assert!(lateness_us(&shots, &all_held).is_none());
    }

    #[test]
    fn heads_parse_incrementally() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nx-actfort-cache: hit\r\n\r\nhelloHTTP";
        let (head, start, end) = parse_head(full).unwrap().unwrap();
        assert_eq!(
            (head.status, head.cache, start, end),
            (200, CacheTag::Hit, 60, 65)
        );
        assert!(parse_head(&full[..64]).unwrap().is_none());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n").unwrap().is_none());
        assert_eq!(generation_of(b"{\"generation\":42,\"x\":1}"), 42);
        assert_eq!(generation_of(b"{\"status\":\"ok\"}"), 0);
        assert_eq!(body_tail(b"{\"generation\":42,\"x\":1}"), b",\"x\":1}");
        assert_eq!(body_tail(b"{\"status\":1}"), b"{\"status\":1}");
    }
}
