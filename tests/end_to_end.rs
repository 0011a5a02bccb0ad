//! Cross-crate integration: the complete Chain Reaction Attack pipeline
//! from radio interception to Fintech impact, and its defeat by the
//! paper's countermeasures.

use actfort::attack::cases::{run_all, CaseWorld};
use actfort::attack::chain::{ChainReactionAttack, InterceptMode};
use actfort::core::counter::{apply, Countermeasure};
use actfort::core::profile::AttackerProfile;
use actfort::ecosystem::dataset::curated_services;
use actfort::ecosystem::host::Ecosystem;
use actfort::ecosystem::policy::Platform;
use actfort::ecosystem::population::PopulationBuilder;
use actfort::gsm::network::NetworkConfig;

fn weak_network() -> NetworkConfig {
    NetworkConfig { session_key_bits: 16, ..Default::default() }
}

#[test]
fn all_three_paper_cases_replay() {
    let reports = run_all(404).expect("all cases succeed");
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert!(r.receipt.is_some(), "{} produced no payment", r.name);
        assert!(!r.narrative.is_empty());
    }
    // Case I needs no middle account; Cases II and III need exactly one.
    assert_eq!(reports[0].accounts.len(), 1);
    assert_eq!(reports[1].accounts.len(), 2);
    assert_eq!(reports[2].accounts.len(), 2);
}

#[test]
fn hardened_ecosystem_defeats_the_chain() {
    // Build two identical worlds: one stock, one with the built-in push
    // countermeasure applied to every service spec. The same attack that
    // drains PayPal in the stock world must fail outright in the
    // hardened one.
    let build = |hardened: bool| -> Ecosystem {
        let mut eco = Ecosystem::with_network(11, weak_network());
        let mut person = PopulationBuilder::new(61).person();
        person.email = format!("v{}@gmail.com", person.id.0);
        eco.add_person(person).unwrap();
        let specs = if hardened {
            apply(&curated_services(), Countermeasure::BuiltInPush)
        } else {
            curated_services()
        };
        for s in specs {
            eco.add_service(s).unwrap();
        }
        eco.enroll_everyone().unwrap();
        eco
    };

    let attack = ChainReactionAttack { platform: Platform::Web, ..Default::default() };

    let mut stock = build(false);
    let phone = stock.people().next().unwrap().phone.clone();
    let report = attack.execute(&mut stock, &phone, &"paypal".into()).expect("stock world falls");
    assert!(report.receipt.is_some());

    let mut hardened = build(true);
    let phone = hardened.people().next().unwrap().phone.clone();
    let err = attack.execute(&mut hardened, &phone, &"paypal".into());
    assert!(err.is_err(), "push authentication must stop the SMS-based chain");
}

#[test]
fn active_mitm_beats_strong_crypto_where_passive_fails() {
    // With full-strength session keys the passive sniffer is blind, but
    // the active MitM downgrades to A5/0 and still wins — exactly the
    // paper's motivation for the USRP rig.
    let build = || -> Ecosystem {
        let mut eco = Ecosystem::with_network(13, NetworkConfig::default());
        let mut person = PopulationBuilder::new(62).person();
        person.email = format!("v{}@gmail.com", person.id.0);
        eco.add_person(person).unwrap();
        for s in curated_services() {
            eco.add_service(s).unwrap();
        }
        eco.enroll_everyone().unwrap();
        eco
    };

    let mut world = build();
    let phone = world.people().next().unwrap().phone.clone();
    let passive = ChainReactionAttack {
        platform: Platform::Web,
        mode: InterceptMode::PassiveSniffing { crack_bits: 20 },
        ..Default::default()
    };
    assert!(passive.execute(&mut world, &phone, &"jd".into()).is_err());

    let mut world = build();
    let phone = world.people().next().unwrap().phone.clone();
    let active = ChainReactionAttack {
        platform: Platform::Web,
        mode: InterceptMode::ActiveMitm,
        ..Default::default()
    };
    let report = active.execute(&mut world, &phone, &"jd".into()).expect("MitM wins");
    assert!(report.stealthy);
}

#[test]
fn victim_notices_passive_but_not_active_interception() {
    let mut world = CaseWorld::new(21);
    let sub = world.eco.gsm.subscriber_by_msisdn(&world.victim_phone).unwrap();

    // Passive: run case I; the victim's inbox shows the OTPs that were
    // sniffed (the stealthiness caveat of §V-A2).
    actfort::attack::cases::case1_baidu_wallet(&mut world).unwrap();
    let seen = world.eco.gsm.terminal(sub).unwrap().inbox().len();
    assert!(seen > 0, "passive sniffing leaves the SMS on the victim's phone");

    // Active: a fresh world, MitM chain — victim sees nothing new.
    let mut world = CaseWorld::new(22);
    let sub = world.eco.gsm.subscriber_by_msisdn(&world.victim_phone).unwrap();
    let attack = ChainReactionAttack {
        platform: Platform::Web,
        mode: InterceptMode::ActiveMitm,
        ..Default::default()
    };
    attack.execute(&mut world.eco, &world.victim_phone, &"jd".into()).unwrap();
    assert_eq!(world.eco.gsm.terminal(sub).unwrap().inbox().len(), 0);
}

#[test]
fn strategy_predictions_match_executable_reality() {
    // Every account the forward analysis says falls on the curated web
    // ecosystem must actually fall to the executor, and the survivors
    // must actually resist.
    let mut world = CaseWorld::new(31);
    let specs: Vec<_> = world.eco.specs().into_iter().cloned().collect();
    let forward = actfort::core::Analysis::over(&specs, Platform::Web, AttackerProfile::paper_default())
        .forward(&[])
        .run()
        .unwrap();

    // Sample a handful of predicted victims and all survivors.
    let attack = ChainReactionAttack { platform: Platform::Web, ..Default::default() };
    for target in ["ctrip", "gmail", "paypal", "dropbox", "jd"] {
        assert!(
            forward.records.contains_key(&target.into()),
            "{target} should be predicted to fall"
        );
        let report = attack.execute(&mut world.eco, &world.victim_phone.clone(), &target.into());
        assert!(report.is_ok(), "{target} predicted to fall but resisted: {report:?}");
    }
    for target in forward.uncompromised.iter().take(3) {
        let report = attack.execute(&mut world.eco, &world.victim_phone.clone(), target);
        assert!(report.is_err(), "{target} predicted to survive but fell");
    }
}
