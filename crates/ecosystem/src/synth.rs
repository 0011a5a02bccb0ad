//! Calibrated synthetic service generation.
//!
//! The paper measures 201 top-Alexa services; we have 44 curated
//! profiles. The generator extrapolates to any population size with
//! aggregate statistics calibrated to the paper's published numbers
//! (Fig. 3, Table I, the in-text path-class and dependency-depth
//! percentages), so population-level experiments reproduce the measured
//! *distributions* rather than inventing them.

use crate::factor::CredentialFactor as F;
use crate::info::{ExposedField, Masking, PersonalInfoKind as K};
use crate::policy::{Platform, Purpose};
use crate::spec::{ServiceDomain, ServiceSpec, ServiceSpecBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Calibration constants, defaulting to the paper's measurements.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// P(service resets with phone+SMS only) on the web — the paper's
    /// 74.13% direct-compromise figure is dominated by this.
    pub reset_sms_only_web: f64,
    /// Same on mobile (75.56%).
    pub reset_sms_only_mobile: f64,
    /// P(sign-in offers an SMS-only path) on the web — "significantly
    /// lower than for password resetting".
    pub signin_sms_only_web: f64,
    /// Same on mobile.
    pub signin_sms_only_mobile: f64,
    /// P(a non-SMS-only reset path requires personal info) — drives the
    /// info-path share (13.45% web / 17% mobile).
    pub info_path_rate: f64,
    /// P(service has a unique path: biometric / U2F / device) —
    /// 16.35% web / 17% mobile.
    pub unique_path_rate: f64,
    /// P(a web client offers an extra email code/link reset) — drives the
    /// paper's one-middle-layer share on the web (9.83%).
    pub email_reset_rate_web: f64,
    /// Same on mobile (26.47% one-middle-layer).
    pub email_reset_rate_mobile: f64,
    /// Table I exposure probabilities on the web, in
    /// [`K::table1`] order.
    pub exposure_web: [f64; 9],
    /// Table I exposure probabilities on mobile.
    pub exposure_mobile: [f64; 9],
    /// P(bankcard number exposed, masked) web / mobile — the paper notes
    /// bankcards are the best-protected field.
    pub bankcard_exposure: (f64, f64),
    /// P(a generated service ships a mobile app).
    pub has_mobile_rate: f64,
    /// P(a generated service has a website).
    pub has_web_rate: f64,
    /// P(a mobile app offers a biometric quick sign-in) — drives the
    /// unique-path share (~17% of paths in the paper).
    pub mobile_biometric_signin: f64,
    /// P(a website offers a U2F/device-bound sign-in).
    pub web_unique_signin: f64,
    /// Share of *non-direct* services whose only viable entry is SSO into
    /// an earlier email-gated service — creates the two-layer
    /// full-capacity chains the paper measures at 5.20% (web) / 20.59%
    /// (mobile).
    pub sso_gated_share: f64,
    /// Share of *non-direct* services resetting with SMS + bankcard —
    /// combined with complementary bankcard masks on email-gated Fintech
    /// services this creates the two-layer half-capacity (couple) chains
    /// (2.89% / 8.82%).
    pub bankcard_gated_share: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            reset_sms_only_web: 0.7413,
            reset_sms_only_mobile: 0.7556,
            signin_sms_only_web: 0.38,
            signin_sms_only_mobile: 0.48,
            info_path_rate: 0.16,
            unique_path_rate: 0.165,
            email_reset_rate_web: 0.10,
            email_reset_rate_mobile: 0.28,
            // Table I, web column (percent → probability).
            exposure_web: [0.4920, 0.1176, 0.5401, 0.5936, 0.5134, 0.4599, 0.4492, 0.3209, 0.1497],
            // Table I, mobile column.
            exposure_mobile: [0.7500, 0.4107, 0.8750, 0.6429, 0.6429, 0.6071, 0.5714, 0.6607, 0.3571],
            bankcard_exposure: (0.08, 0.15),
            has_mobile_rate: 0.90,
            has_web_rate: 0.93,
            mobile_biometric_signin: 0.38,
            web_unique_signin: 0.18,
            sso_gated_share: 0.30,
            bankcard_gated_share: 0.15,
        }
    }
}

const DOMAIN_POOL: &[(ServiceDomain, u32)] = &[
    (ServiceDomain::Ecommerce, 20),
    (ServiceDomain::SocialNetwork, 16),
    (ServiceDomain::News, 14),
    (ServiceDomain::Video, 14),
    (ServiceDomain::LocalServices, 10),
    (ServiceDomain::Travel, 8),
    (ServiceDomain::Fintech, 8),
    (ServiceDomain::Email, 4),
    (ServiceDomain::CloudStorage, 4),
    (ServiceDomain::Other, 12),
];

/// Cross-service state threaded through generation so later services can
/// depend on earlier ones (SSO links, mask-merging card providers).
#[derive(Debug, Default)]
struct GenState {
    /// Ids of services whose reset is gated on email (round-2 nodes).
    email_gated: Vec<String>,
    /// Ids of email-gated Fintech services exposing complementary
    /// bankcard masks; alternates head/tail masks.
    card_providers: Vec<String>,
}

/// Generates `n` synthetic service specs calibrated by `config`.
pub fn generate(n: usize, seed: u64, config: &SynthConfig) -> Vec<ServiceSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = GenState::default();
    (0..n).map(|i| generate_one(i, &mut rng, config, &mut state)).collect()
}

/// Generates the paper's population: the 44 curated services plus enough
/// synthetic ones to reach 201 total.
pub fn paper_population(seed: u64) -> Vec<ServiceSpec> {
    let mut all = crate::dataset::curated_services();
    let need = 201usize.saturating_sub(all.len());
    all.extend(generate(need, seed, &SynthConfig::default()));
    all
}

fn pick_domain(rng: &mut StdRng) -> ServiceDomain {
    let total: u32 = DOMAIN_POOL.iter().map(|(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    for (d, w) in DOMAIN_POOL {
        if roll < *w {
            return *d;
        }
        roll -= w;
    }
    ServiceDomain::Other
}

fn info_factor(rng: &mut StdRng) -> F {
    match rng.gen_range(0..4u8) {
        0 => F::RealName,
        1 => F::CitizenId,
        2 => F::BankcardNumber,
        _ => F::SecurityQuestion,
    }
}

fn unique_factor(rng: &mut StdRng) -> F {
    match rng.gen_range(0..3u8) {
        0 => F::Biometric,
        1 => F::U2fKey,
        _ => F::DeviceCheck,
    }
}

fn generate_one(
    index: usize,
    rng: &mut StdRng,
    cfg: &SynthConfig,
    state: &mut GenState,
) -> ServiceSpec {
    let domain = pick_domain(rng);
    let id = format!("synth-{index:03}");
    let name = format!("Service {index:03}");
    let has_mobile = rng.gen_bool(cfg.has_mobile_rate);
    let has_web = rng.gen_bool(cfg.has_web_rate) || !has_mobile;

    let mut b = ServiceSpec::builder(&id, &name, domain);
    if !has_mobile {
        b = b.web_only();
    } else if !has_web {
        b = b.mobile_only();
    }

    // Cross-service dependency decisions apply per service, not per
    // platform, so the two clients agree on them. They only take effect
    // on platforms whose reset draw lands in the non-direct branch.
    let roll: f64 = rng.gen();
    let sso_target = if roll < cfg.sso_gated_share && !state.email_gated.is_empty() {
        Some(state.email_gated[rng.gen_range(0..state.email_gated.len())].clone())
    } else {
        None
    };
    let bankcard_reset = sso_target.is_none()
        && roll < cfg.sso_gated_share + cfg.bankcard_gated_share
        && state.card_providers.len() >= 2;

    // Card-binding services (payments, shopping, travel) that are
    // email-gated leak complementary halves of the bound bankcard on the
    // gated platform — the inconsistent-masking weakness of §IV-B2.
    let binds_cards = matches!(
        domain,
        ServiceDomain::Fintech | ServiceDomain::Ecommerce | ServiceDomain::Travel
    );
    let card_mask = if index % 2 == 0 {
        Masking::Partial { prefix: 9, suffix: 0 }
    } else {
        Masking::Partial { prefix: 0, suffix: 9 }
    };

    let mut email_gated_any = false;
    for (platform, present) in [(Platform::Web, has_web), (Platform::MobileApp, has_mobile)] {
        if !present {
            continue;
        }
        let (b2, gated) = platform_paths(
            b,
            platform,
            rng,
            cfg,
            domain,
            sso_target.as_deref(),
            bankcard_reset,
            binds_cards,
        );
        b = platform_exposure(b2, platform, rng, cfg);
        if gated && binds_cards {
            let field = ExposedField { kind: K::BankcardNumber, masking: card_mask };
            b = match platform {
                Platform::Web => b.expose_web(field),
                Platform::MobileApp => b.expose_mobile(field),
            };
        }
        email_gated_any |= gated;
    }

    if email_gated_any && binds_cards {
        state.card_providers.push(id.clone());
    }
    if email_gated_any {
        state.email_gated.push(id.clone());
    }
    b.build()
}

#[allow(clippy::too_many_arguments)]
fn platform_paths(
    mut b: ServiceSpecBuilder,
    platform: Platform,
    rng: &mut StdRng,
    cfg: &SynthConfig,
    domain: ServiceDomain,
    sso_target: Option<&str>,
    bankcard_reset: bool,
    binds_cards: bool,
) -> (ServiceSpecBuilder, bool) {
    let (signin_sms, mut reset_sms) = match platform {
        Platform::Web => (cfg.signin_sms_only_web, cfg.reset_sms_only_web),
        Platform::MobileApp => (cfg.signin_sms_only_mobile, cfg.reset_sms_only_mobile),
    };
    // §IV-B2: Fintech deploys the strictest authentication.
    if domain == ServiceDomain::Fintech {
        reset_sms *= 0.55;
    }

    // Reset: the core calibration. Either SMS alone suffices, or the
    // service layers info / email / bankcard factors on top, or (for the
    // deep-dependency shapes) hides behind SSO / bankcard gates.
    let reset_direct = rng.gen_bool(reset_sms);
    let mut email_gated = false;
    let mut deep_gated = false;
    if reset_direct {
        b = b.path(Purpose::PasswordReset, platform, &[F::CellphoneNumber, F::SmsCode]);
    } else if sso_target.is_some() {
        // Security questions make the reset unusable to the attacker;
        // the SSO sign-in below is the only way in.
        b = b.path(Purpose::PasswordReset, platform, &[F::SmsCode, F::SecurityQuestion]);
        deep_gated = true;
    } else if bankcard_reset {
        b = b.path(Purpose::PasswordReset, platform, &[F::SmsCode, F::BankcardNumber]);
        deep_gated = true;
    } else if rng.gen_bool(if binds_cards { 0.2 } else { 0.5 }) {
        b = b.path(Purpose::PasswordReset, platform, &[F::SmsCode, info_factor(rng)]);
    } else {
        // Card-binding services lean on email resets, so the email
        // gateway also guards the card-mask providers.
        b = b.path(Purpose::PasswordReset, platform, &[F::SmsCode, F::EmailCode]);
        email_gated = true;
    }

    // Sign-in: everyone has a password; a calibrated fraction adds an
    // SMS-only quick login. SMS-only sign-in is confined to services
    // whose reset is already SMS-only, so the *direct compromise*
    // fraction stays pinned to the reset calibration (the paper's
    // dominant figure) while the sign-in bar stays lower.
    b = b.path(Purpose::SignIn, platform, &[F::Password]);
    if reset_direct && rng.gen_bool((signin_sms / reset_sms).min(1.0)) {
        b = b.path(Purpose::SignIn, platform, &[F::CellphoneNumber, F::SmsCode]);
    }
    if let Some(target) = sso_target {
        b = b.path(Purpose::SignIn, platform, &[F::LinkedAccount(target.into())]);
    }
    // Unique paths: biometric quick login on mobile, U2F/device binding
    // on the web, plus hardened reset variants.
    let unique_signin = match platform {
        Platform::MobileApp => cfg.mobile_biometric_signin,
        Platform::Web => cfg.web_unique_signin,
    };
    if rng.gen_bool(unique_signin) {
        let factor = match platform {
            Platform::MobileApp => F::Biometric,
            Platform::Web => unique_factor(rng),
        };
        b = b.path(Purpose::SignIn, platform, &[F::Password, factor]);
    }
    let email_fallback = match platform {
        Platform::Web => cfg.email_reset_rate_web,
        Platform::MobileApp => cfg.email_reset_rate_mobile,
    };
    if !deep_gated && rng.gen_bool(email_fallback) {
        // Deep-gated services get no email fallback, or they would fall a
        // round earlier and erase the two-layer structure.
        b = b.path(Purpose::PasswordReset, platform, &[F::EmailCode]);
    }
    let unique_rate = if domain == ServiceDomain::Fintech {
        (cfg.unique_path_rate * 2.0).min(1.0)
    } else {
        cfg.unique_path_rate
    };
    if rng.gen_bool(unique_rate) {
        b = b.path(Purpose::PasswordReset, platform, &[F::SmsCode, unique_factor(rng)]);
    }
    // Fintech layers a payment path.
    if domain == ServiceDomain::Fintech {
        b = b.path(Purpose::Payment, platform, &[F::SmsCode, info_factor(rng)]);
    }
    (b, email_gated && !reset_direct)
}

fn platform_exposure(
    mut b: ServiceSpecBuilder,
    platform: Platform,
    rng: &mut StdRng,
    cfg: &SynthConfig,
) -> ServiceSpecBuilder {
    let probs = match platform {
        Platform::Web => &cfg.exposure_web,
        Platform::MobileApp => &cfg.exposure_mobile,
    };
    for (kind, &p) in K::table1().iter().zip(probs) {
        if rng.gen_bool(p) {
            let masking = match kind {
                K::CellphoneNumber => Masking::Partial { prefix: 3, suffix: 4 },
                K::CitizenId => {
                    // Services disagree on which digits to hide — the
                    // mask-merging weakness.
                    match rng.gen_range(0..3u8) {
                        0 => Masking::Partial { prefix: 10, suffix: 0 },
                        1 => Masking::Partial { prefix: 0, suffix: 8 },
                        _ => Masking::Partial { prefix: 6, suffix: 4 },
                    }
                }
                K::EmailAddress => {
                    if rng.gen_bool(0.3) {
                        Masking::Partial { prefix: 2, suffix: 8 }
                    } else {
                        Masking::Clear
                    }
                }
                _ => Masking::Clear,
            };
            let field = ExposedField { kind: *kind, masking };
            b = match platform {
                Platform::Web => b.expose_web(field),
                Platform::MobileApp => b.expose_mobile(field),
            };
        }
    }
    let (card_web, card_mobile) = cfg.bankcard_exposure;
    let card_p = match platform {
        Platform::Web => card_web,
        Platform::MobileApp => card_mobile,
    };
    if rng.gen_bool(card_p) {
        let field = ExposedField::partial(K::BankcardNumber, 0, 4);
        b = match platform {
            Platform::Web => b.expose_web(field),
            Platform::MobileApp => b.expose_mobile(field),
        };
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(50, 7, &SynthConfig::default());
        let b = generate(50, 7, &SynthConfig::default());
        assert_eq!(a, b);
        let c = generate(50, 8, &SynthConfig::default());
        assert_ne!(a, c);
    }

    #[test]
    fn paper_population_has_201_services() {
        let pop = paper_population(1);
        assert_eq!(pop.len(), 201);
        // Curated set leads; ids unique throughout.
        let mut ids: Vec<&str> = pop.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 201);
    }

    #[test]
    fn reset_sms_only_fraction_matches_calibration() {
        let pop = generate(400, 3, &SynthConfig::default());
        let web: Vec<_> = pop.iter().filter(|s| s.has_web).collect();
        let direct = web
            .iter()
            .filter(|s| {
                s.paths_for(Platform::Web, Purpose::PasswordReset)
                    .iter()
                    .any(|p| p.is_sms_only())
            })
            .count();
        let frac = direct as f64 / web.len() as f64;
        assert!((0.68..=0.80).contains(&frac), "web reset SMS-only fraction {frac}");
    }

    #[test]
    fn mobile_exposes_more_than_web() {
        // Table I: every kind is more exposed on mobile.
        let pop = generate(400, 5, &SynthConfig::default());
        let count = |platform: Platform, kind: K| {
            pop.iter()
                .filter(|s| s.on(platform))
                .filter(|s| s.exposes(platform, kind))
                .count() as f64
        };
        for kind in [K::RealName, K::CellphoneNumber, K::CitizenId, K::DeviceType] {
            let w = count(Platform::Web, kind);
            let m = count(Platform::MobileApp, kind);
            assert!(m > w, "{kind} should be more exposed on mobile ({m} vs {w})");
        }
    }

    #[test]
    fn every_generated_service_has_signin_and_reset() {
        for s in generate(100, 9, &SynthConfig::default()) {
            let platforms: Vec<Platform> = [Platform::Web, Platform::MobileApp]
                .into_iter()
                .filter(|&p| s.on(p))
                .collect();
            assert!(!platforms.is_empty());
            for p in platforms {
                assert!(!s.paths_for(p, Purpose::SignIn).is_empty(), "{} lacks sign-in on {p}", s.id);
                assert!(
                    !s.paths_for(p, Purpose::PasswordReset).is_empty(),
                    "{} lacks reset on {p}",
                    s.id
                );
            }
        }
    }

    #[test]
    fn sms_factor_dominates() {
        // Fig. 3: SMS appears in over 80% of services' authentication.
        let pop = generate(300, 11, &SynthConfig::default());
        let with_sms = pop
            .iter()
            .filter(|s| s.paths.iter().any(|p| p.uses_sms()))
            .count();
        let frac = with_sms as f64 / pop.len() as f64;
        assert!(frac > 0.80, "SMS usage fraction {frac}");
    }
}
