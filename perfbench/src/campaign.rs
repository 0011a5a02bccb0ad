//! The `campaign` workload: a city-scale GSM interception campaign
//! (`gsm::campaign::run_sharded`) followed by its account-ecosystem
//! assessment (`core::campaign::assess`), repeated back to back.
//!
//! This is the only workload that exercises `gsm` and batch scoring.
//! The city is the one `gsm_campaign` measures — 200 cells, 20,000
//! subscribers, 120 s simulated, the experiment seed — so every run
//! does identical work; `--seed` seeds the small city of the
//! shard-determinism check. The assessment runs on the curated
//! population (MobileApp).

use crate::rng::Rng;
use crate::stats::{self, Summary};
use crate::trace::{Tracer, NO_PARENT};
use crate::{Metrics, RunResult};
use actfort_core::campaign::{assess, CampaignImpact};
use actfort_core::prepared::Prepared;
use actfort_core::profile::AttackerProfile;
use actfort_core::query::Analysis;
use actfort_core::{OverlayFactor, UserProfile};
use actfort_ecosystem::dataset::curated_services;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceSpec;
use actfort_gsm::campaign::{run_sharded, CampaignConfig, CampaignReport};
use std::time::Instant;

/// The standard experiment seed of the repository's benches.
const EXPERIMENT_SEED: u64 = 2021;

/// Set-up repetitions after each campaign; the median over the run is
/// reported, so it samples the host across the whole run rather than at
/// one moment.
const SETUP_REPS: usize = 16;
/// Campaigns run at least this many times whatever `--seconds` says.
const MIN_CAMPAIGNS: usize = 3;

/// The measured city: the experiment seed, as in `BENCH_gsm.json`.
fn city() -> CampaignConfig {
    CampaignConfig {
        seed: EXPERIMENT_SEED,
        subscribers: 20_000,
        duration_s: 120,
        sms_interval_ms: 500,
        ..CampaignConfig::default()
    }
}

/// What must repeat exactly between campaigns of one config.
fn fingerprint(report: &CampaignReport, impact: &CampaignImpact) -> [u64; 5] {
    [
        report.totals.events,
        report.interceptions.len() as u64,
        impact.victims.len() as u64,
        impact.total_blast_radius,
        u64::from(impact.cascade_compromised),
    ]
}

/// Set-up: the account population compiled for scoring, as `assess`
/// compiles it, and the city layout. Returns the wall time, s.
fn setup(cfg: &CampaignConfig) -> f64 {
    let started = Instant::now();
    let specs = curated_services();
    let prepared = Prepared::new(&specs, Platform::MobileApp, AttackerProfile::paper_default());
    std::hint::black_box((prepared, cfg.cell_configs()));
    started.elapsed().as_secs_f64()
}

/// One campaign, `CampaignConfig` to `CampaignImpact`.
fn campaign(
    cfg: &CampaignConfig,
    shards: u32,
    specs: &[ServiceSpec],
    tr: &mut Tracer,
    id: u32,
) -> Result<(CampaignReport, CampaignImpact), String> {
    let root = tr.open(id, NO_PARENT, "campaign");
    let report = tr.time(id, root, "gsm.campaign.run", || run_sharded(cfg, shards));
    let impact = tr
        .time(id, root, "core.campaign.assess", || {
            assess(
                &report,
                specs,
                Platform::MobileApp,
                AttackerProfile::paper_default(),
            )
        })
        .map_err(|e| format!("assessment failed: {e}"))?;
    tr.close(root);
    Ok((report, impact))
}

/// Runs the campaign workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let shards = stats::nproc().min(8) as u32;
    let cfg = city();

    let specs = curated_services();
    println!(
        "perfbench: campaign — {} cells, {} subscribers, {} s simulated, seed {:#x}, {shards} shard(s)",
        cfg.cells(),
        cfg.subscribers,
        cfg.duration_s,
        cfg.seed
    );

    let mut problems = Vec::new();
    // A small city, seeded from `--seed`, must give byte-identical
    // reports at 1 and n shards.
    let small = CampaignConfig {
        seed: Rng::new(seed, 0xca4b).next_u64(),
        subscribers: 500,
        duration_s: 20,
        grid_cols: 8,
        grid_rows: 5,
        ..cfg.clone()
    };
    if run_sharded(&small, 1).to_json() != run_sharded(&small, shards.max(2)).to_json() {
        problems.push(format!(
            "small-city report differs between 1 and {} shards",
            shards.max(2)
        ));
    }

    let mut quiet = Tracer::new(false);
    let (report, impact) = campaign(&cfg, shards, &specs, &mut quiet, 0)?;
    let expected = fingerprint(&report, &impact);
    let check = |report: &CampaignReport, impact: &CampaignImpact, problems: &mut Vec<String>| {
        if impact.victims.len() != report.compromised.len() {
            problems.push(format!(
                "assess scored {} victims for {} compromised subscribers",
                impact.victims.len(),
                report.compromised.len()
            ));
        }
        if fingerprint(report, impact) != expected {
            problems.push("a repeated campaign gave a different result".to_owned());
        }
    };
    check(&report, &impact, &mut problems);

    let mut tr = Tracer::new(traced);
    let mut walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut rates = Vec::new();
    let mut users = Vec::new();
    let mut setups = Vec::new();
    let started = Instant::now();
    while walls.len() + untraced_walls.len() < MIN_CAMPAIGNS
        || started.elapsed().as_secs_f64() < seconds
    {
        // A traced run alternates traced and untraced campaigns, so the
        // difference of the two medians is the tracing overhead.
        let n = walls.len() + untraced_walls.len();
        let tracing = traced && n % 2 == 0;
        let id = n as u32 + 1;
        let t0 = Instant::now();
        let (report, impact) = campaign(
            &cfg,
            shards,
            &specs,
            if tracing { &mut tr } else { &mut quiet },
            id,
        )?;
        let wall = t0.elapsed().as_secs_f64();
        check(&report, &impact, &mut problems);
        setups.extend((0..SETUP_REPS).map(|_| setup(&cfg)));
        if traced && !tracing {
            untraced_walls.push(wall);
            continue;
        }
        walls.push(wall);
        if traced {
            // The victim batch alone: the scoring layer inside `assess`.
            let profiles: Vec<UserProfile> = impact
                .victims
                .iter()
                .map(|v| UserProfile::new(v.services.clone(), OverlayFactor::ALL))
                .collect();
            let root = tr.open(id, NO_PARENT, "score");
            tr.time(id, root, "core.prepared.compile", || {
                std::hint::black_box(Prepared::new(
                    &specs,
                    Platform::MobileApp,
                    AttackerProfile::paper_default(),
                ))
            });
            let t = Instant::now();
            let scores = tr
                .time(id, root, "core.score.batch", || {
                    Analysis::over(
                        &specs,
                        Platform::MobileApp,
                        AttackerProfile::paper_default(),
                    )
                    .score_users(&profiles)
                    .run()
                })
                .map_err(|e| format!("scoring failed: {e}"))?;
            users.push(profiles.len() as f64 / t.elapsed().as_secs_f64());
            tr.close(root);
            if scores.iter().ne(impact.victims.iter().map(|v| &v.score)) {
                problems.push("victim scores differ from the assessment's".to_owned());
            }
            let run_s = tr
                .spans()
                .iter()
                .rev()
                .find(|s| s.name == "gsm.campaign.run")
                .map_or(wall, |s| s.duration_ns() as f64 / 1e9);
            rates.push(report.totals.events as f64 / run_s);
        }
    }

    let campaigns = walls.len() + untraced_walls.len();
    println!(
        "perfbench: {campaigns} campaigns — {} victims, {} interceptions, {} events each",
        impact.victims.len(),
        report.interceptions.len(),
        report.totals.events
    );
    let wall_ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let mut m = Metrics::default();
    if traced {
        let span_median = |name: &str, scale: f64| {
            let v: Vec<f64> = tr
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 * scale)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                stats::median(&v)
            }
        };
        m.set("gsm.campaign.run_ms", span_median("gsm.campaign.run", 1e-6));
        m.set("gsm.campaign.events_per_s", stats::median(&rates));
        m.set(
            "gsm.campaign.interceptions",
            report.interceptions.len() as f64,
        );
        m.set(
            "core.campaign.assess_ms",
            span_median("core.campaign.assess", 1e-6),
        );
        m.set("core.score.batch_us", span_median("core.score.batch", 1e-3));
        m.set("core.score.users_per_s", stats::median(&users));
        m.set(
            "core.prepared.compile_us",
            span_median("core.prepared.compile", 1e-3),
        );
        m.set(
            "trace.overhead_pct",
            (stats::median(&walls) / stats::median(&untraced_walls) - 1.0) * 100.0,
        );
        crate::write_spans(&tr, "campaign", seed)?;
    } else {
        let wall = Summary::of(&wall_ms);
        let setup = Summary::of(&setups);
        let setup_ms: Vec<f64> = setups.iter().map(|s| s * 1e3).collect();
        println!(
            "perfbench: campaign wall (campaign_s x 1000) {}",
            wall.describe("ms")
        );
        println!(
            "perfbench: set-up {}",
            Summary::of(&setup_ms).describe("ms")
        );
        m.set("p50_ms", wall.median);
        m.set("setup_s", setup.median);
        m.set("peak_rss_mb", stats::peak_rss_mb());
    }
    Ok(RunResult {
        problems,
        attempted: campaigns,
        failed: 0,
        metrics: m,
    })
}
