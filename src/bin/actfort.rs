//! The ActFort command-line tool: ecosystem analysis from the shell.
//!
//! ```text
//! actfort audit                      # Fig. 3 / Table I measurement summary
//! actfort chain <service-id>        # backward attack chains to a target
//! actfort report [web|mobile]       # markdown risk report to stdout
//! actfort breach [web|mobile]       # top blast-radius ranking
//! actfort graph [web|mobile]        # Graphviz DOT of the TDG to stdout
//! actfort list                      # service ids in the curated dataset
//! ```
//!
//! All commands run over the curated 44-service dataset with the paper's
//! standard attacker profile; `--population` switches to the full
//! 201-service calibrated population.

use actfort::core::profile::AttackerProfile;
use actfort::core::{breach, dot, metrics, report, Analysis, Tdg};
use actfort::ecosystem::dataset::curated_services;
use actfort::ecosystem::policy::{Platform, Purpose};
use actfort::ecosystem::synth::paper_population;
use actfort::ecosystem::ServiceSpec;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: actfort [--population] <command>\n\
         commands:\n\
         \x20 audit                measurement summary (Fig. 3 / Table I shapes)\n\
         \x20 chain <service-id>   attack chains reaching the target\n\
         \x20 report [web|mobile]  markdown risk report\n\
         \x20 breach [web|mobile]  breach blast-radius ranking\n\
         \x20 graph [web|mobile]   Graphviz DOT of the dependency graph\n\
         \x20 list                 known service ids"
    );
    ExitCode::FAILURE
}

fn platform_arg(arg: Option<&str>) -> Result<Platform, ExitCode> {
    match arg {
        None | Some("mobile") => Ok(Platform::MobileApp),
        Some("web") => Ok(Platform::Web),
        Some(other) => {
            eprintln!("unknown platform {other:?} (expected web or mobile)");
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let full_population = if let Some(pos) = args.iter().position(|a| a == "--population") {
        args.remove(pos);
        true
    } else {
        false
    };
    let specs: Vec<ServiceSpec> =
        if full_population { paper_population(2021) } else { curated_services() };
    let ap = AttackerProfile::paper_default();

    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    match command {
        "audit" => {
            println!("{} services analysed\n", specs.len());
            for purpose in [Purpose::SignIn, Purpose::PasswordReset] {
                for platform in [Platform::Web, Platform::MobileApp] {
                    println!(
                        "SMS-only {purpose:<15} {platform:<7} {:5.1}%",
                        metrics::sms_only_percentage(&specs, platform, purpose)
                    );
                }
            }
            for platform in [Platform::Web, Platform::MobileApp] {
                let d = metrics::depth_breakdown(&specs, platform, &ap);
                println!(
                    "\n{platform}: direct {:.1}% / one-layer {:.1}% / deeper {:.1}% / resistant {:.1}%",
                    d.direct_pct,
                    d.one_layer_pct,
                    d.two_layer_full_pct + d.two_layer_mixed_pct,
                    d.uncompromisable_pct
                );
            }
            ExitCode::SUCCESS
        }
        "chain" => {
            let Some(target) = args.get(1) else {
                eprintln!("chain: missing <service-id>");
                return ExitCode::FAILURE;
            };
            let target = target.as_str().into();
            let mut found = false;
            for platform in [Platform::Web, Platform::MobileApp] {
                // A raw-spec source accepts a service that exists on the
                // other platform only; it has no chains here.
                match Analysis::over(&specs, platform, ap).backward(&target).max_chains(5).run() {
                    Ok(chains) => {
                        for chain in &chains {
                            println!("{platform:<7} {chain}");
                            found = true;
                        }
                    }
                    Err(e) => {
                        eprintln!("chain: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if !found {
                println!("no chain reaches {target} under the profiled attacker");
            }
            ExitCode::SUCCESS
        }
        "report" => {
            let platform = match platform_arg(args.get(1).map(String::as_str)) {
                Ok(p) => p,
                Err(code) => return code,
            };
            print!("{}", report::render_markdown(&specs, platform, &ap));
            ExitCode::SUCCESS
        }
        "breach" => {
            let platform = match platform_arg(args.get(1).map(String::as_str)) {
                Ok(p) => p,
                Err(code) => return code,
            };
            let radii = breach::blast_radii(&specs, platform, &AttackerProfile::none(), 8);
            println!("breach blast radius ({platform}, pure data breach):");
            for r in radii.iter().take(15) {
                println!("  {:<22} {:>4} downstream accounts", r.seed, r.cascade_size());
            }
            ExitCode::SUCCESS
        }
        "graph" => {
            let platform = match platform_arg(args.get(1).map(String::as_str)) {
                Ok(p) => p,
                Err(code) => return code,
            };
            print!("{}", dot::to_dot(&Tdg::build(&specs, platform, ap)));
            ExitCode::SUCCESS
        }
        "list" => {
            for s in &specs {
                println!("{:<22} {:<16} {}", s.id, s.domain.to_string(), s.name);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
