//! The `cold-mixed` serving workload and its in-process replay.
//!
//! It serves the 201-service paper population through
//! `actfort_serve::start` and loads it open loop from this process with
//! forward, backward and score reads that are unique within a
//! generation, repeating what-if reads, and a reload of the same dataset
//! at a fixed cadence. The response cache misses on all but the
//! what-ifs, so the core engines, the worker queue and the snapshot
//! rebuild dominate.
//!
//! The traced run replays the untraced run's request stream (same seed)
//! in process, calling `serve::{http, wire, cache, snapshot}` and the
//! `core` facade in the order the server does, with a span around each
//! call. A served pass at the nominal rate supplies the client latency
//! the layer self-times are reconciled against.

use crate::openloop::{self, CacheTag, Options, Outcome, Shot};
use crate::rng::Rng;
use crate::stats::{self, Summary};
use crate::trace::{self, SpanId, Tracer, NO_PARENT};
use crate::{Metrics, RunResult};
use actfort_core::counter::canonical_set;
use actfort_core::prepared::Prepared;
use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_core::{Countermeasure, EdgeClass};
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::synth::paper_population;
use actfort_serve::cache::{CacheKey, ResponseCache};
use actfort_serve::http::{self, Parse, Response};
use actfort_serve::snapshot::Snapshot;
use actfort_serve::{start, wire, Client, Dataset, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workload's name on the command line.
pub const NAME: &str = "cold-mixed";
/// The population every run serves (the experiment seed).
const POPULATION_SEED: u64 = 2021;
/// Offered read rate, requests/s: about half of what two workers
/// sustain at the mix's mean in-process cost per read (see the README).
const NOMINAL_RPS: f64 = 600.0;
/// `/admin/reload` cadence, s: a dataset refresh, compressed so that
/// every run holds several.
const RELOAD_EVERY_S: f64 = 5.0;
/// Servers started to measure set-up before the measured phase, and
/// again after it, so the median samples the host at both ends of the
/// run.
const SETUP_STARTS: usize = 16;
/// Unmeasured traffic before the measured phase.
const WARMUP_SECONDS: f64 = 0.5;
/// Profiles per `/score` batch.
const SCORE_BATCH: usize = 8;
/// Server lifetimes an untraced run is split into, each with a fresh
/// server and fresh generator connections; `p50_ms` is the median over
/// them. Where threads land and how the hash maps are seeded differ
/// between lifetimes and move a lifetime's median by about a tenth, so a
/// run samples several.
const SEGMENTS: usize = 3;
/// Every this many served bodies is kept and compared with the replay.
const KEEP_EVERY: usize = 16;
/// Reads of the last generation sent again after the measured phase,
/// for the identical-bytes check.
const REPEATS: usize = 256;
/// Requests of the measured stream the traced run replays and writes
/// spans for (the stream's first ones).
const MAX_TRACED: usize = 20_000;
/// A phase is generator-bound when the generator's median lateness
/// exceeds this, ms: above the served median read latency, the
/// generator's own delay would dominate what is measured.
const GENERATOR_BOUND_MS: f64 = 1.0;

/// Request classes, as the traced run splits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// `POST /v1/forward`.
    Forward,
    /// `POST /v1/backward`.
    Backward,
    /// `POST /score`.
    Score,
    /// `POST /whatif` (one countermeasure set).
    Whatif,
    /// `POST /admin/reload` of the same dataset.
    Reload,
}

/// The read classes, drawn in equal shares.
const READS: [Class; 4] = [Class::Forward, Class::Backward, Class::Score, Class::Whatif];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Forward => "forward",
            Class::Backward => "backward",
            Class::Score => "score",
            Class::Whatif => "whatif",
            Class::Reload => "reload",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Class::Forward => "/v1/forward",
            Class::Backward => "/v1/backward",
            Class::Score => "/score",
            Class::Whatif => "/whatif",
            Class::Reload => "/admin/reload",
        }
    }
}

/// One request: class, body and its bytes on the wire.
#[derive(Debug, Clone)]
pub struct Req {
    class: Class,
    body: String,
    wire: Vec<u8>,
}

impl AsRef<[u8]> for Req {
    fn as_ref(&self) -> &[u8] {
        &self.wire
    }
}

impl Req {
    fn new(class: Class, body: String) -> Self {
        let wire = format!(
            "POST {} HTTP/1.1\r\nhost: actfort\r\ncontent-length: {}\r\n\r\n{body}",
            class.path(),
            body.len()
        )
        .into_bytes();
        Self { class, body, wire }
    }
}

/// Draws requests over the platform-eligible services.
struct Mix {
    ids: Vec<String>,
    rng: Rng,
}

fn quoted(ids: &[&str]) -> String {
    ids.iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(",")
}

impl Mix {
    fn distinct(&mut self, n: usize) -> Vec<&str> {
        let mut picked: Vec<usize> = Vec::with_capacity(n);
        while picked.len() < n {
            let i = self.rng.below(self.ids.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.into_iter().map(|i| self.ids[i].as_str()).collect()
    }

    fn edge_class(&mut self) -> &'static str {
        EdgeClass::all()[self.rng.below(3)].wire_name()
    }

    fn draw(&mut self, class: Class) -> Req {
        let body = match class {
            Class::Forward => {
                let n = 1 + self.rng.below(3);
                format!("{{\"seeds\":[{}]}}", quoted(&self.distinct(n)))
            }
            // Exhaustive: no deadline or budget.
            Class::Backward => {
                let target = self.distinct(1)[0].to_owned();
                let max_chains = 1 + self.rng.below(8);
                let class = self.edge_class();
                format!(
                    "{{\"target\":\"{target}\",\"max_chains\":{max_chains},\"edge_class\":\"{class}\"}}"
                )
            }
            // Profiles sized as `core::campaign`'s victims: 4 to 11 accounts.
            Class::Score => {
                let profiles: Vec<String> = (0..SCORE_BATCH)
                    .map(|_| {
                        let n = 4 + self.rng.below(8);
                        format!("{{\"services\":[{}]}}", quoted(&self.distinct(n)))
                    })
                    .collect();
                format!("{{\"profiles\":[{}]}}", profiles.join(","))
            }
            Class::Whatif => {
                let all = Countermeasure::all();
                let mask = self.rng.below(1 << all.len());
                let set: Vec<&str> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, cm)| cm.wire_name())
                    .collect();
                let class = self.edge_class();
                format!(
                    "{{\"countermeasures\":[{}],\"edge_class\":\"{class}\"}}",
                    quoted(&set)
                )
            }
            Class::Reload => unreachable!("reloads are scheduled, not drawn"),
        };
        Req::new(class, body)
    }
}

fn reload_req() -> Req {
    Req::new(
        Class::Reload,
        format!(
            "{{\"dataset\":\"{}\"}}",
            Dataset::Paper(POPULATION_SEED).name()
        ),
    )
}

/// Everything a run's phases are built from.
struct Plan {
    seed: u64,
    ids: Vec<String>,
}

/// One phase's schedule and request table.
struct PhaseInput {
    shots: Vec<Shot>,
    reqs: Vec<Req>,
}

impl Plan {
    /// The phase identified by `stream`, `seconds` long. A forward,
    /// backward or score read is unique within the current and the
    /// previous reload window (a read sent just before a reload may be
    /// served after it); a duplicate is redrawn within its class. What-if
    /// reads repeat: their space is 32 sets × 3 edge classes, so after a
    /// set's first use in a generation the cache answers it.
    fn phase(&self, stream: u64, seconds: f64) -> PhaseInput {
        let times = openloop::poisson_times(self.seed ^ stream, NOMINAL_RPS, seconds);
        let mut events: Vec<(u64, bool)> = times.into_iter().map(|t| (t, false)).collect();
        let every_ns = (RELOAD_EVERY_S * 1e9) as u64;
        let mut t = every_ns / 2;
        while (t as f64) < seconds * 1e9 {
            events.push((t, true));
            t += every_ns;
        }
        events.sort_by_key(|&(t, reload)| (t, !reload));
        let mut input = PhaseInput {
            shots: Vec::new(),
            reqs: Vec::new(),
        };
        let mut mix = Mix {
            ids: self.ids.clone(),
            rng: Rng::new(self.seed, stream),
        };
        let (mut current, mut previous) = (HashSet::new(), HashSet::new());
        for (at_ns, reload) in events {
            let req = if reload {
                previous = std::mem::take(&mut current);
                reload_req()
            } else {
                let class = READS[mix.rng.below(READS.len())];
                loop {
                    let r = mix.draw(class);
                    if class == Class::Whatif
                        || (!previous.contains(&r.body) && current.insert(r.body.clone()))
                    {
                        break r;
                    }
                }
            };
            input.shots.push(Shot {
                at_ns,
                req: input.reqs.len(),
            });
            input.reqs.push(req);
        }
        input
    }
}

impl PhaseInput {
    /// Splits the phase into `n` consecutive parts of equal length, each
    /// timed from its own start.
    fn split(self, seconds: f64, n: usize) -> Vec<PhaseInput> {
        let span = (seconds * 1e9 / n as f64) as u64;
        let mut parts: Vec<PhaseInput> = (0..n)
            .map(|_| PhaseInput {
                shots: Vec::new(),
                reqs: Vec::new(),
            })
            .collect();
        let mut reqs: Vec<Option<Req>> = self.reqs.into_iter().map(Some).collect();
        for shot in self.shots {
            let k = ((shot.at_ns / span) as usize).min(n - 1);
            let part = &mut parts[k];
            part.shots.push(Shot {
                at_ns: shot.at_ns - k as u64 * span,
                req: part.reqs.len(),
            });
            part.reqs
                .push(reqs[shot.req].take().expect("every request is sent once"));
        }
        parts
    }
}

/// Stream ids of the phases; the measured phase is shared by the
/// untraced run and the traced replay.
const WARMUP_STREAM: u64 = 0x3a11;
const NOMINAL_STREAM: u64 = 0x4e0d;

/// The served configuration: defaults, except that the work queue holds
/// every request the generator can have in flight (one pipeline per
/// connection), as `loadgen` sizes it. Overload then shows as latency
/// and a growing backlog rather than as refusals, whose timing on a
/// small shared host follows its scheduling noise.
fn config(workers: usize) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        dataset: Dataset::Paper(POPULATION_SEED),
        threads: Some(workers),
        queue_capacity: Some(workers * defaults.max_pipeline),
        ..defaults
    }
}

/// Starts the server and returns it with the time until `/healthz`
/// first answers 200.
fn start_timed(workers: usize) -> Result<(ServerHandle, f64), String> {
    let started = Instant::now();
    let handle = start(config(workers)).map_err(|e| format!("server failed to start: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    loop {
        let resp = client
            .get("/healthz")
            .map_err(|e| format!("healthz: {e}"))?;
        if resp.status == 200 {
            return Ok((handle, started.elapsed().as_secs_f64()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Platform-eligible service ids of the population (the graph covers
/// only these; any other id is an unknown service).
fn eligible_ids(snap: &Snapshot) -> Result<Vec<String>, String> {
    let all = Analysis::of(&snap.tdg)
        .forward(&[])
        .run()
        .map_err(|e| e.to_string())?;
    let mut ids: Vec<String> = all
        .records
        .keys()
        .map(|id| id.as_str().to_owned())
        .collect();
    ids.extend(all.uncompromised.iter().map(|id| id.as_str().to_owned()));
    ids.sort();
    Ok(ids)
}

fn build_snapshot(generation: u64) -> Snapshot {
    Snapshot::build(
        Dataset::Paper(POPULATION_SEED),
        Platform::Web,
        AttackerProfile::paper_default(),
        generation,
    )
}

fn connect(addr: std::net::SocketAddr, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            Ok(s)
        })
        .collect()
}

/// The server's per-connection pipeline depth bounds requests in flight.
fn max_inflight() -> usize {
    ServerConfig::default().max_pipeline
}

/// In-process serving state: the same snapshot, cache and call order as
/// the server's handlers.
struct Replay {
    snap: Snapshot,
    cache: ResponseCache,
    /// Countermeasure sets whose patch this generation has compiled.
    patched: HashSet<Vec<Countermeasure>>,
}

/// What one replayed request produced.
struct Served {
    body: Vec<u8>,
    cache: CacheTag,
    /// Forward: services compromised. Backward: chains. Score: users.
    count: usize,
}

impl Replay {
    fn new(snap: Snapshot) -> Self {
        Self {
            snap,
            cache: ResponseCache::new(ServerConfig::default().cache_capacity),
            patched: HashSet::new(),
        }
    }

    /// Serves `req` as the server would, recording a span per layer
    /// call under a root span for `id`.
    fn serve(&mut self, tr: &mut Tracer, id: u32, req: &Req) -> Result<Served, String> {
        let root = tr.open(id, NO_PARENT, "request");
        let parsed = tr.time(id, root, "serve.http.parse", || {
            http::parse_request(&req.wire)
        });
        let Parse::Complete { request, .. } = parsed else {
            return Err(format!("request did not parse: {:?}", req.body));
        };
        let served = match req.class {
            Class::Reload => self.reload(tr, id, root, &request.body)?,
            _ => self
                .read(tr, id, root, req.class, &request.body)
                .map_err(|e| e.to_string())?,
        };
        tr.time(id, root, "serve.http.render", || {
            let mut response = Response::json(200, served.body.clone());
            match served.cache {
                CacheTag::Hit => response = response.with_header("x-actfort-cache", "hit"),
                CacheTag::Miss => response = response.with_header("x-actfort-cache", "miss"),
                CacheTag::None => {}
            }
            let mut out = Vec::with_capacity(served.body.len() + 160);
            http::render_response(&response, false, &mut out);
            std::hint::black_box(out);
        });
        tr.close(root);
        Ok(served)
    }

    fn reload(
        &mut self,
        tr: &mut Tracer,
        id: u32,
        root: SpanId,
        body: &[u8],
    ) -> Result<Served, String> {
        let request = tr
            .time(id, root, "serve.wire.parse", || wire::parse_reload(body))
            .map_err(|e| e.to_string())?;
        let dataset = Dataset::parse(&request.dataset).map_err(|e| e.to_string())?;
        let generation = self.snap.generation + 1;
        self.snap = tr.time(id, root, "serve.snapshot.build", || {
            Snapshot::build(dataset, self.snap.platform, self.snap.profile, generation)
        });
        let body = format!(
            "{{\"generation\":{generation},\"dataset\":\"{}\",\"services\":{}}}",
            self.snap.dataset.name(),
            self.snap.specs.len()
        );
        self.patched.clear();
        Ok(Served {
            body: body.into_bytes(),
            cache: CacheTag::None,
            count: 0,
        })
    }

    fn read(
        &mut self,
        tr: &mut Tracer,
        id: u32,
        root: SpanId,
        class: Class,
        body: &[u8],
    ) -> Result<Served, actfort_core::Error> {
        let snap = &self.snap;
        let cache = &self.cache;
        let gen = snap.generation;
        let partials = wire::DEADLINE_PARTIALS_PER_MS;
        let lookup = |tr: &mut Tracer, key: &CacheKey| {
            tr.time(id, root, "serve.cache.lookup", || cache.get(key))
        };
        let patched = &mut self.patched;
        let finish = |tr: &mut Tracer, key: CacheKey, rendered: Vec<u8>, count| {
            let body = tr.time(id, root, "serve.cache.insert", || {
                cache.insert(key, Arc::new(rendered))
            });
            Served {
                body: body.as_ref().clone(),
                cache: CacheTag::Miss,
                count,
            }
        };
        let hit = |body: Arc<Vec<u8>>| Served {
            body: body.as_ref().clone(),
            cache: CacheTag::Hit,
            count: 0,
        };
        Ok(match class {
            Class::Forward => {
                let r = tr.time(id, root, "serve.wire.parse", || wire::parse_forward(body))?;
                let engine = wire::engine_name(r.common.engine);
                let key = CacheKey::forward(gen, engine, r.common.edge_class, r.memo, &r.seeds);
                if let Some(b) = lookup(tr, &key) {
                    return Ok(hit(b));
                }
                let result = tr.time(id, root, "core.prepared.forward", || {
                    Analysis::of(&snap.tdg)
                        .forward(&r.seeds)
                        .engine(r.common.engine)
                        .edge_class(r.common.edge_class)
                        .memo(r.memo)
                        .run()
                })?;
                let rendered = tr.time(id, root, "serve.wire.render", || {
                    wire::render_forward(gen, r.common.engine, &result)
                });
                finish(tr, key, rendered, result.compromised_count())
            }
            Class::Backward => {
                let r = tr.time(id, root, "serve.wire.parse", || wire::parse_backward(body))?;
                let budget = r.common.effective_budget(partials);
                let engine = wire::engine_name(r.common.engine);
                let key = CacheKey::backward(
                    gen,
                    engine,
                    r.common.edge_class,
                    &r.target,
                    r.max_chains,
                    budget,
                );
                if let Some(b) = lookup(tr, &key) {
                    return Ok(hit(b));
                }
                let (chains, exhaustive) = tr.time(id, root, "core.backward.query", || {
                    let mut q = Analysis::of(&snap.tdg)
                        .backward(&r.target)
                        .max_chains(r.max_chains)
                        .engine(r.common.engine)
                        .edge_class(r.common.edge_class);
                    if r.common.engine != Engine::Naive {
                        q = q.via(&snap.backward);
                    }
                    if let Some(budget) = budget {
                        q = q.budget(budget);
                    }
                    q.run_bounded()
                })?;
                let rendered = tr.time(id, root, "serve.wire.render", || {
                    wire::render_backward(gen, r.common.engine, &r.target, &chains, exhaustive)
                });
                finish(tr, key, rendered, chains.len())
            }
            Class::Score => {
                let r = tr.time(id, root, "serve.wire.parse", || wire::parse_score(body))?;
                let engine = wire::engine_name(r.common.engine);
                let key = CacheKey::score(gen, engine, r.common.edge_class, &r.profiles);
                if let Some(b) = lookup(tr, &key) {
                    return Ok(hit(b));
                }
                let scores = tr.time(id, root, "core.score.batch", || {
                    Analysis::of(&snap.tdg)
                        .score_users(&r.profiles)
                        .engine(r.common.engine)
                        .edge_class(r.common.edge_class)
                        .run()
                })?;
                let rendered = tr.time(id, root, "serve.wire.render", || {
                    wire::render_score(gen, r.common.engine, &scores)
                });
                finish(tr, key, rendered, r.profiles.len())
            }
            Class::Whatif => {
                let r = tr.time(id, root, "serve.wire.parse", || wire::parse_whatif(body))?;
                let key = CacheKey::whatif(
                    gen,
                    r.common.edge_class,
                    &r.countermeasures,
                    r.sweep,
                    r.severed_chains,
                );
                if let Some(b) = lookup(tr, &key) {
                    return Ok(hit(b));
                }
                // The first use of a set after a reload compiles its
                // patch; the what-if below then finds it cached.
                let set = canonical_set(&r.countermeasures);
                let layer = if patched.insert(set.clone()) {
                    "core.counter.patch"
                } else {
                    "core.counter.patch_cached"
                };
                tr.time(id, root, layer, || {
                    std::hint::black_box(snap.patcher.patch(&set))
                });
                let report = tr.time(id, root, "core.counter.whatif", || {
                    Analysis::of(&snap.tdg)
                        .whatif(&r.countermeasures)
                        .patcher(&snap.patcher)
                        .via(&snap.backward)
                        .edge_class(r.common.edge_class)
                        .max_severed(r.severed_chains)
                        .run()
                })?;
                let rendered = tr.time(id, root, "serve.wire.render", || {
                    wire::render_whatif(gen, &[report])
                });
                finish(tr, key, rendered, 1)
            }
            Class::Reload => unreachable!("reloads are served by Replay::reload"),
        })
    }
}

/// A served phase: its input and what came back.
struct Phase {
    input: PhaseInput,
    outcomes: Vec<Outcome>,
}

impl Phase {
    fn reads(&self) -> impl Iterator<Item = (&Shot, &Outcome, &Req)> {
        self.input
            .shots
            .iter()
            .zip(&self.outcomes)
            .map(|(s, o)| (s, o, &self.input.reqs[s.req]))
            .filter(|(_, _, r)| r.class != Class::Reload)
    }

    /// Median over one-second windows of each window's median latency
    /// of `class`: a host stall confined to a few windows moves few of
    /// the window medians and not their median.
    fn windowed_p50_ms(&self, class: Class) -> f64 {
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (s, o, _) in self.reads().filter(|(_, _, r)| r.class == class) {
            windows
                .entry(s.at_ns / 1_000_000_000)
                .or_default()
                .push(openloop::latency_ms(s, o));
        }
        let medians: Vec<f64> = windows.values().map(|w| stats::median(w)).collect();
        stats::median(&medians)
    }

    /// The mean over the read classes of each class's windowed median.
    /// The classes' medians lie apart (a memoized backward search answers
    /// in microseconds, a forward query takes a third of a millisecond),
    /// so the median over all reads falls in a gap between them, where a
    /// small change in the class shares moves it far; each class's median
    /// lies where its samples are dense.
    fn class_p50_ms(&self) -> f64 {
        READS.iter().map(|&c| self.windowed_p50_ms(c)).sum::<f64>() / READS.len() as f64
    }

    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status != 200).count()
    }

    /// The first failure, for error messages.
    fn first_failure(&self) -> String {
        self.input
            .shots
            .iter()
            .zip(&self.outcomes)
            .find(|(_, o)| o.status != 200)
            .map_or_else(String::new, |(s, o)| {
                format!(
                    "{} {} -> {} {}",
                    self.input.reqs[s.req].class.path(),
                    self.input.reqs[s.req].body,
                    o.status,
                    String::from_utf8_lossy(o.body.as_deref().unwrap_or_default())
                )
            })
    }
}

fn serve_phase(
    conns: &mut [TcpStream],
    input: PhaseInput,
    hash: bool,
    keep_every: usize,
) -> Result<Phase, String> {
    let opts = Options {
        hash,
        keep_every,
        max_inflight: max_inflight(),
    };
    let outcomes = openloop::run_phase(conns, &input.shots, &input.reqs, opts)
        .map_err(|e| format!("load generation failed: {e}"))?;
    Ok(Phase { input, outcomes })
}

/// Unmeasured traffic: [`WARMUP_SECONDS`] at the nominal rate.
fn warm_up(plan: &Plan, conns: &mut [TcpStream]) -> Result<(), String> {
    let warm = serve_phase(conns, plan.phase(WARMUP_STREAM, WARMUP_SECONDS), false, 0)?;
    if warm.failed() > 0 {
        return Err(format!(
            "{} requests failed during warm-up, first: {}",
            warm.failed(),
            warm.first_failure()
        ));
    }
    Ok(())
}

fn generator_bound(phase: &Phase) -> bool {
    openloop::lateness_us(&phase.input.shots, &phase.outcomes)
        .is_some_and(|l| l.median / 1e3 > GENERATOR_BOUND_MS)
}

/// Sampled served bodies must equal the in-process replay rendered
/// for the same generation.
fn check_bodies(phase: &Phase, replay: &mut Replay, problems: &mut Vec<String>) -> usize {
    let mut quiet = Tracer::new(false);
    let mut checked = 0;
    for (_, o, req) in phase.reads() {
        let Some(body) = &o.body else { continue };
        if o.status != 200 {
            continue;
        }
        replay.snap.generation = o.generation;
        match replay.serve(&mut quiet, 0, req) {
            Ok(expected) if expected.body == *body => checked += 1,
            Ok(_) => problems.push(format!(
                "served body differs from the replay at generation {}: {}",
                o.generation, req.body
            )),
            Err(e) => problems.push(format!("replay failed: {e}")),
        }
    }
    checked
}

/// Identical requests within one generation must return identical
/// bytes. After the measured phase, with no reload in between, sends
/// again up to [`REPEATS`] reads of its last generation, spread over
/// that generation, and compares each answer with the first one.
fn check_repeats(
    phase: &Phase,
    conns: &mut [TcpStream],
    problems: &mut Vec<String>,
) -> Result<usize, String> {
    let last = phase.outcomes.iter().map(|o| o.generation).max().unwrap_or(0);
    let firsts: Vec<(&Outcome, &Req)> = phase
        .reads()
        .filter(|(_, o, _)| o.status == 200 && o.generation == last)
        .map(|(_, o, r)| (o, r))
        .collect();
    let stride = firsts.len().div_ceil(REPEATS).max(1);
    let firsts: Vec<(&Outcome, &Req)> = firsts.into_iter().step_by(stride).collect();
    let input = PhaseInput {
        shots: (0..firsts.len())
            .map(|i| Shot {
                at_ns: (i as f64 * 1e9 / NOMINAL_RPS) as u64,
                req: i,
            })
            .collect(),
        reqs: firsts.iter().map(|(_, r)| (*r).clone()).collect(),
    };
    let again = serve_phase(conns, input, true, 0)?;
    for ((first, req), second) in firsts.iter().zip(&again.outcomes) {
        if second.status != 200 || second.generation != first.generation {
            problems.push(format!(
                "repeated request answered {} at generation {} (first: 200 at {}): {}",
                second.status, second.generation, first.generation, req.body
            ));
        } else if second.hash != first.hash {
            problems.push(format!("identical request, different bytes: {}", req.body));
        }
    }
    if firsts.is_empty() {
        problems.push("no read of the last generation to repeat".to_owned());
    }
    Ok(firsts.len())
}

/// Starts a server, connects the generator and warms the server up.
fn ready(plan: &Plan, workers: usize) -> Result<(ServerHandle, Vec<TcpStream>), String> {
    let (server, _) = start_timed(workers)?;
    let mut conns = connect(server.addr(), workers)?;
    warm_up(plan, &mut conns)?;
    Ok((server, conns))
}

/// Times [`SETUP_STARTS`] server starts.
fn time_starts(workers: usize, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_STARTS {
        let (handle, setup_s) = start_timed(workers)?;
        setups.push(setup_s);
        handle.shutdown();
    }
    Ok(())
}

/// Runs the workload. Untraced, it reports the end-to-end metrics;
/// traced, the per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let workers = stats::nproc();
    let mut setups = Vec::with_capacity(2 * SETUP_STARTS);
    if !traced {
        time_starts(workers, &mut setups)?;
    }
    let snap = build_snapshot(1);
    let plan = Plan {
        seed,
        ids: eligible_ids(&snap)?,
    };
    let nominal = plan.phase(NOMINAL_STREAM, seconds);
    println!(
        "perfbench: {NAME} — {} services, {workers} generator connections, {NOMINAL_RPS} req/s \
         for {seconds} s, reload every {RELOAD_EVERY_S} s",
        snap.specs.len(),
    );
    if traced {
        let (server, mut conns) = ready(&plan, workers)?;
        let result = traced_run(&plan, &mut conns, nominal, snap);
        drop(conns);
        server.shutdown();
        return result;
    }
    let mut result = untraced_run(&plan, workers, nominal.split(seconds, SEGMENTS), snap)?;
    time_starts(workers, &mut setups)?;
    let setup_ms: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();
    println!(
        "perfbench: set-up {}; median {:.4} ms before the measured phase, {:.4} ms after",
        Summary::of(&setup_ms).describe("ms"),
        stats::median(&setup_ms[..SETUP_STARTS]),
        stats::median(&setup_ms[SETUP_STARTS..])
    );
    result.metrics.set("setup_s", stats::median(&setups));
    Ok(result)
}

/// Serves each part of the measured phase on a server of its own.
fn untraced_run(
    plan: &Plan,
    workers: usize,
    parts: Vec<PhaseInput>,
    snap: Snapshot,
) -> Result<RunResult, String> {
    let mut problems = Vec::new();
    let mut phases = Vec::with_capacity(parts.len());
    let mut repeats = 0;
    let last = parts.len() - 1;
    for (k, input) in parts.into_iter().enumerate() {
        let (server, mut conns) = ready(plan, workers)?;
        // Bodies are sampled sparsely: the benchmark's own memory must
        // not dominate the peak RSS it reports.
        let phase = serve_phase(&mut conns, input, true, KEEP_EVERY)?;
        if k == last {
            repeats = check_repeats(&phase, &mut conns, &mut problems)?;
        }
        drop(conns);
        server.shutdown();
        phases.push(phase);
    }
    let peak_rss_mb = stats::peak_rss_mb();

    let mut replay = Replay::new(snap);
    let checked: usize = phases
        .iter()
        .map(|phase| check_bodies(phase, &mut replay, &mut problems))
        .sum();
    println!(
        "perfbench: correctness — {checked} sampled bodies equal the replay, {repeats} repeated \
         requests byte-identical, {} problem(s)",
        problems.len()
    );
    for p in problems.iter().take(5) {
        println!("perfbench: FAILED CHECK {p}");
    }

    let reads = || phases.iter().flat_map(Phase::reads);
    let latencies = |class: Option<Class>| -> Vec<f64> {
        reads()
            .filter(|(_, _, r)| class.is_none_or(|c| r.class == c))
            .map(|(s, o, _)| openloop::latency_ms(s, o))
            .collect()
    };
    let writes: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.input.shots.iter().zip(&p.outcomes).map(move |(s, o)| (p, s, o)))
        .filter(|(p, s, _)| p.input.reqs[s.req].class == Class::Reload)
        .map(|(_, s, o)| openloop::latency_ms(s, o))
        .collect();
    let (hits, misses) = reads().fold((0, 0), |(h, m), (_, o, _)| match o.cache {
        CacheTag::Hit => (h + 1, m),
        CacheTag::Miss => (h, m + 1),
        CacheTag::None => (h, m),
    });
    let attempted: usize = phases.iter().map(|p| p.outcomes.len()).sum();
    let failed: usize = phases.iter().map(Phase::failed).sum();
    let p50s: Vec<f64> = phases.iter().map(Phase::class_p50_ms).collect();
    println!(
        "perfbench: read latency {}; mean of the class medians per server lifetime {:.4?} ms",
        Summary::of(&latencies(None)).describe("ms"),
        p50s
    );
    for class in READS {
        println!(
            "perfbench:   {:<8} {}",
            class.name(),
            Summary::of(&latencies(Some(class))).describe("ms")
        );
    }
    if !writes.is_empty() {
        println!(
            "perfbench: write (/admin/reload) latency {}",
            Summary::of(&writes).describe("ms")
        );
    }
    println!(
        "perfbench: error_rate {:.6} ({failed} of {attempted}), cache hit ratio {:.4}",
        failed as f64 / attempted as f64,
        hits as f64 / (hits + misses).max(1) as f64
    );
    for phase in &phases {
        if let Some(late) = openloop::lateness_us(&phase.input.shots, &phase.outcomes) {
            println!("perfbench: generator lateness {}", late.describe("us"));
        }
    }
    if phases.iter().any(generator_bound) {
        problems.push(format!(
            "invalid run: the generator, not the server, fell behind the {NOMINAL_RPS} req/s \
             schedule"
        ));
    }

    let mut metrics = Metrics::default();
    metrics.set("p50_ms", stats::median(&p50s));
    metrics.set("peak_rss_mb", peak_rss_mb);
    Ok(RunResult {
        problems,
        attempted,
        failed,
        metrics,
    })
}

/// Mean self time per occurrence of each span name, over requests
/// `>= 1` (request 0 is set-up), in microseconds; plus, per request,
/// its root duration.
struct Layers {
    mean_us: BTreeMap<&'static str, (f64, usize)>,
    root_us: HashMap<u32, f64>,
}

fn layers(tr: &Tracer) -> Result<Layers, String> {
    let spans = tr.spans();
    let own = trace::self_times(spans);
    let mut sums: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    let mut per_request: HashMap<u32, (u64, u64)> = HashMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        if s.request == 0 {
            continue;
        }
        let e = sums.entry(s.name).or_default();
        e.0 += self_ns;
        e.1 += 1;
        let r = per_request.entry(s.request).or_default();
        r.0 += self_ns;
        if s.parent.is_none() {
            r.1 += s.duration_ns();
        }
    }
    // Self times of a request's spans add up to its root span exactly.
    if let Some((id, (sum, root))) = per_request.iter().find(|(_, (sum, root))| sum != root) {
        return Err(format!(
            "request {id}: self times sum to {sum} ns, root span is {root} ns"
        ));
    }
    Ok(Layers {
        mean_us: sums
            .into_iter()
            .map(|(k, (ns, n))| (k, (ns as f64 / n as f64 / 1e3, n)))
            .collect(),
        root_us: per_request
            .into_iter()
            .map(|(id, (_, root))| (id, root as f64 / 1e3))
            .collect(),
    })
}

fn median_timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            tr.time(0, NO_PARENT, name, || std::hint::black_box(f()));
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Requests per block of the interleaved replays.
const REPLAY_BLOCK: usize = 500;

/// Replays `input` in process twice, traced into `tr` and untraced,
/// alternating blocks of [`REPLAY_BLOCK`] requests so that both see the
/// same host. Returns the traced replay's results and the wall time of
/// each replay.
fn replay(input: &PhaseInput, tr: &mut Tracer) -> Result<(Vec<Served>, f64, f64), String> {
    let mut traced = Replay::new(build_snapshot(1));
    let mut untraced = Replay::new(build_snapshot(1));
    let mut quiet = Tracer::new(false);
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut served = Vec::new();
    let shots: Vec<&Shot> = input.shots.iter().take(MAX_TRACED).collect();
    for (b, block) in shots.chunks(REPLAY_BLOCK).enumerate() {
        let first = b * REPLAY_BLOCK;
        let started = Instant::now();
        for (i, s) in block.iter().enumerate() {
            served.push(traced.serve(tr, (first + i) as u32 + 1, &input.reqs[s.req])?);
        }
        traced_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        for s in block {
            untraced.serve(&mut quiet, 0, &input.reqs[s.req])?;
        }
        untraced_s += started.elapsed().as_secs_f64();
    }
    Ok((served, traced_s, untraced_s))
}

fn traced_run(
    plan: &Plan,
    conns: &mut [TcpStream],
    nominal: PhaseInput,
    snap: Snapshot,
) -> Result<RunResult, String> {
    let phase = serve_phase(conns, nominal, true, 0)?;
    let input = &phase.input;
    if let Some(late) = openloop::lateness_us(&input.shots, &phase.outcomes) {
        println!("perfbench: generator lateness {}", late.describe("us"));
    }

    let mut tr = Tracer::new(true);
    let ap = AttackerProfile::paper_default();
    let synth_s = median_timed(&mut tr, "ecosystem.synth.population", 5, || {
        paper_population(POPULATION_SEED)
    });
    let compile_s = median_timed(&mut tr, "core.prepared.compile", 5, || {
        Prepared::new(&snap.specs, Platform::Web, ap)
    });
    let build_s = median_timed(&mut tr, "serve.snapshot.build", 3, || build_snapshot(1));
    let (served, traced_s, untraced_s) = replay(input, &mut tr)?;

    let mut problems = Vec::new();
    for ((s, o), r) in input.shots.iter().zip(&phase.outcomes).zip(&served) {
        if o.status != 200 {
            continue;
        }
        if o.hash != openloop::fnv1a(openloop::body_tail(&r.body)) {
            problems.push(format!(
                "served body differs from the replay: {}",
                input.reqs[s.req].body
            ));
        }
    }

    let layers = layers(&tr)?;
    let mean = |name: &str| layers.mean_us.get(name).map_or(0.0, |&(us, _)| us);
    let count = |name: &str| layers.mean_us.get(name).map_or(0, |&(_, n)| n);

    // Reconcile per class: mean client latency = summed mean layer self
    // times + residual (reactor, queue wait, socket).
    let mut by_class: BTreeMap<Class, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (i, (s, o)) in input
        .shots
        .iter()
        .zip(&phase.outcomes)
        .take(served.len())
        .enumerate()
    {
        let class = input.reqs[s.req].class;
        let e = by_class.entry(class).or_default();
        e.0.push(openloop::latency_ms(s, o) * 1e3);
        e.1.push(layers.root_us[&(i as u32 + 1)]);
    }
    let mut residuals = Vec::new();
    for (class, (client, layer_sum)) in &by_class {
        let residual: Vec<f64> = client.iter().zip(layer_sum).map(|(c, l)| c - l).collect();
        let (c, l, r) = (
            stats::mean(client),
            stats::mean(layer_sum),
            stats::mean(&residual),
        );
        println!(
            "perfbench: reconcile {:<8} n={:<6} client {c:>10.1} us = layers {l:>9.1} us + residual \
             {r:>10.1} us",
            class.name(),
            client.len()
        );
        if *class != Class::Reload {
            residuals.extend(residual);
        }
    }

    let reads: Vec<&Outcome> = phase.reads().map(|(_, o, _)| o).collect();
    let hits = reads.iter().filter(|o| o.cache == CacheTag::Hit).count();
    let misses = reads.iter().filter(|o| o.cache == CacheTag::Miss).count();
    let shed = phase.outcomes.iter().filter(|o| o.status == 503).count();
    let writes: Vec<f64> = input
        .shots
        .iter()
        .zip(&phase.outcomes)
        .filter(|(s, _)| input.reqs[s.req].class == Class::Reload)
        .map(|(s, o)| openloop::latency_ms(s, o))
        .collect();
    let counted = |class: Class| {
        let v: Vec<f64> = input
            .shots
            .iter()
            .zip(&served)
            .filter(|(s, r)| input.reqs[s.req].class == class && r.cache == CacheTag::Miss)
            .map(|(_, r)| r.count as f64)
            .collect();
        stats::mean(&v)
    };
    let score_users: f64 = input
        .shots
        .iter()
        .zip(&served)
        .filter(|(s, r)| input.reqs[s.req].class == Class::Score && r.cache == CacheTag::Miss)
        .map(|(_, r)| r.count as f64)
        .sum();
    let score_s = mean("core.score.batch") * count("core.score.batch") as f64 / 1e6;

    let mut m = Metrics::default();
    m.set("serve.http.parse_us", mean("serve.http.parse"));
    m.set("serve.http.render_us", mean("serve.http.render"));
    m.set("serve.wire.parse_us", mean("serve.wire.parse"));
    m.set("serve.wire.render_us", mean("serve.wire.render"));
    let lookups = count("serve.cache.lookup").max(1) as f64;
    m.set(
        "serve.cache.lookup_us",
        (mean("serve.cache.lookup") * count("serve.cache.lookup") as f64
            + mean("serve.cache.insert") * count("serve.cache.insert") as f64)
            / lookups,
    );
    m.set(
        "serve.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("serve.residual_us", stats::mean(&residuals));
    m.set(
        "serve.shed_ratio",
        shed as f64 / phase.outcomes.len() as f64,
    );
    m.set(
        "serve.error_rate",
        phase.failed() as f64 / phase.outcomes.len() as f64,
    );
    m.set(
        "serve.write_p50_ms",
        if writes.is_empty() {
            0.0
        } else {
            stats::median(&writes)
        },
    );
    m.set("serve.snapshot.build_ms", build_s * 1e3);
    m.set("ecosystem.synth.population_ms", synth_s * 1e3);
    m.set("core.prepared.compile_us", compile_s * 1e6);
    m.set("core.prepared.forward_us", mean("core.prepared.forward"));
    m.set("core.prepared.fell_per_query", counted(Class::Forward));
    m.set("core.backward.query_us", mean("core.backward.query"));
    m.set("core.backward.chains_per_query", counted(Class::Backward));
    m.set("core.score.batch_us", mean("core.score.batch"));
    m.set(
        "core.score.users_per_s",
        if score_s > 0.0 {
            score_users / score_s
        } else {
            0.0
        },
    );
    m.set("core.counter.patch_us", mean("core.counter.patch"));
    m.set(
        "core.counter.patch_cached_us",
        mean("core.counter.patch_cached"),
    );
    m.set("core.counter.whatif_us", mean("core.counter.whatif"));
    m.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    println!(
        "perfbench: replay {:.1} ms traced vs {:.1} ms untraced ({} requests)",
        traced_s * 1e3,
        untraced_s * 1e3,
        served.len()
    );
    crate::write_spans(&tr, NAME, plan.seed)?;
    Ok(RunResult {
        problems,
        attempted: phase.outcomes.len(),
        failed: phase.failed(),
        metrics: m,
    })
}
