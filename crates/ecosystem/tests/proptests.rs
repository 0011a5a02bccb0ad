//! Property-based tests for the ecosystem's data model and generators.

use actfort_ecosystem::factor::CredentialFactor;
use actfort_ecosystem::info::{is_fully_recovered, merge_masked, Masking};
use actfort_ecosystem::policy::{PathClass, Platform, Purpose};
use actfort_ecosystem::population::PopulationBuilder;
use actfort_ecosystem::synth::{generate, SynthConfig};
use proptest::prelude::*;

fn masking_strategy() -> impl Strategy<Value = Masking> {
    prop_oneof![
        Just(Masking::Clear),
        Just(Masking::Hidden),
        (0u8..20, 0u8..20).prop_map(|(prefix, suffix)| Masking::Partial { prefix, suffix }),
    ]
}

fn value_strategy() -> impl Strategy<Value = String> {
    // Digit strings like IDs/cards/phones; no '*' so masks are unambiguous.
    proptest::collection::vec(proptest::sample::select(('0'..='9').collect::<Vec<_>>()), 1..24)
        .prop_map(|v| v.into_iter().collect())
}

proptest! {
    /// Masking preserves length and never reveals hidden positions that
    /// were not in the visible prefix/suffix.
    #[test]
    fn masking_preserves_length_and_edges(value in value_strategy(), m in masking_strategy()) {
        let masked = m.apply(&value);
        prop_assert_eq!(masked.chars().count(), value.chars().count());
        if let Masking::Partial { prefix, suffix } = m {
            let n = value.chars().count();
            let p = usize::from(prefix).min(n);
            let s = usize::from(suffix).min(n - p);
            let mv: Vec<char> = masked.chars().collect();
            let vv: Vec<char> = value.chars().collect();
            for i in 0..p {
                prop_assert_eq!(mv[i], vv[i]);
            }
            for i in (n - s)..n {
                prop_assert_eq!(mv[i], vv[i]);
            }
            for &c in &mv[p..(n - s)] {
                prop_assert_eq!(c, '*');
            }
        }
    }

    /// Views of the SAME value under any maskings always merge without
    /// conflict, and every recovered position matches the true value.
    #[test]
    fn merging_views_of_one_value_never_conflicts(
        value in value_strategy(),
        masks in proptest::collection::vec(masking_strategy(), 1..6),
    ) {
        let views: Vec<String> = masks.iter().map(|m| m.apply(&value)).collect();
        let merged = merge_masked(&views).expect("same-value views are consistent");
        for (m, v) in merged.chars().zip(value.chars()) {
            prop_assert!(m == '*' || m == v);
        }
        // Full recovery iff some position-cover union is complete:
        if views.iter().any(|w| !w.contains('*')) {
            prop_assert!(is_fully_recovered(&merged));
        }
        if is_fully_recovered(&merged) {
            prop_assert_eq!(merged, value);
        }
    }

    /// Path classification is stable under factor order.
    #[test]
    fn path_class_is_order_invariant(perm in proptest::sample::subsequence(
        vec![
            CredentialFactor::SmsCode,
            CredentialFactor::Password,
            CredentialFactor::CitizenId,
            CredentialFactor::Biometric,
            CredentialFactor::EmailCode,
            CredentialFactor::BankcardNumber,
        ],
        1..6,
    )) {
        let forward = PathClass::classify(&perm);
        let mut rev = perm.clone();
        rev.reverse();
        prop_assert_eq!(forward, PathClass::classify(&rev));
        // Robust factor always dominates.
        let mut with_bio = perm.clone();
        with_bio.push(CredentialFactor::Biometric);
        prop_assert_eq!(PathClass::classify(&with_bio), PathClass::Unique);
    }

    /// The generator always yields structurally valid populations.
    #[test]
    fn synth_population_is_well_formed(seed in any::<u64>(), n in 1usize..80) {
        let pop = generate(n, seed, &SynthConfig::default());
        prop_assert_eq!(pop.len(), n);
        let mut ids: Vec<&str> = pop.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "duplicate service ids");
        for s in &pop {
            prop_assert!(s.has_web || s.has_mobile);
            for platform in [Platform::Web, Platform::MobileApp] {
                if s.on(platform) {
                    prop_assert!(!s.paths_for(platform, Purpose::SignIn).is_empty());
                    prop_assert!(!s.paths_for(platform, Purpose::PasswordReset).is_empty());
                } else {
                    prop_assert!(s.paths_on(platform).is_empty());
                }
            }
        }
    }

    /// Construction invariant: an SMS-only quick sign-in only exists on
    /// platforms whose reset is already SMS-only (keeps the direct
    /// fraction pinned to the reset calibration).
    #[test]
    fn sms_signin_implies_sms_reset(seed in any::<u64>()) {
        let pop = generate(60, seed, &SynthConfig::default());
        for s in &pop {
            for platform in [Platform::Web, Platform::MobileApp] {
                let signin_sms =
                    s.paths_for(platform, Purpose::SignIn).iter().any(|p| p.is_sms_only());
                let reset_sms =
                    s.paths_for(platform, Purpose::PasswordReset).iter().any(|p| p.is_sms_only());
                if signin_sms {
                    prop_assert!(reset_sms, "{} on {platform}", s.id);
                }
            }
        }
    }

    /// Generated people are well-formed and mutually distinct.
    #[test]
    fn population_people_are_distinct(seed in any::<u64>(), n in 2usize..60) {
        let pop = PopulationBuilder::new(seed).population(n);
        let mut phones: Vec<&str> = pop.iter().map(|p| p.phone.digits()).collect();
        phones.sort_unstable();
        phones.dedup();
        prop_assert_eq!(phones.len(), n, "duplicate phone numbers");
        for p in &pop {
            prop_assert_eq!(p.citizen_id.len(), 18);
            prop_assert_eq!(p.bankcard.len(), 16);
            prop_assert!(p.email.contains('@'));
        }
    }
}
