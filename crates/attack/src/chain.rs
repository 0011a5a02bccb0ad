//! The full Chain Reaction Attack: strategy output → sequential account
//! intrusion → high-value impact.

use crate::dossier::Dossier;
use crate::error::AttackError;
use crate::intercept::Interceptor;
use crate::intrusion::{compromise, CompromisedAccount};
use actfort_core::analysis::AttackChain;
use actfort_core::obs;
use actfort_core::profile::AttackerProfile;
use actfort_core::query::{Analysis, Engine};
use actfort_ecosystem::factor::ServiceId;
use actfort_ecosystem::host::Ecosystem;
use actfort_ecosystem::policy::Platform;
use actfort_ecosystem::spec::ServiceDomain;
use actfort_gsm::identity::Msisdn;
use rand::{Rng, SeedableRng};

/// FNV-style hash used to derive per-victim detection streams.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interception mode for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterceptMode {
    /// Passive GSM sniffing with the given crack capability in bits.
    PassiveSniffing {
        /// Keyspace bits the rig can exhaust.
        crack_bits: u32,
    },
    /// Active fake-base-station MitM.
    ActiveMitm,
    /// Remote smishing (§II): no radio proximity, but the victim must
    /// fall for the lure and relay codes.
    Phishing {
        /// Whether the simulated victim complies.
        gullible: bool,
    },
    /// Passive sniffing backed by rainbow-table lookups: works against
    /// full-strength session keys at the published ~90% hit rate, with
    /// occasional misses leaving sessions dark.
    PassiveRainbowTables {
        /// RNG seed for the table model (outcomes are deterministic per
        /// seed).
        seed: u64,
    },
}

/// Configuration of a chain-reaction run.
#[derive(Debug, Clone)]
pub struct ChainReactionAttack {
    /// Platform to analyse and attack over.
    pub platform: Platform,
    /// Assumed base capabilities.
    pub profile: AttackerProfile,
    /// Interception rig choice.
    pub mode: InterceptMode,
    /// Maximum candidate chains to try.
    pub max_chains: usize,
    /// Probability the victim notices each *visible* interception step
    /// (unexpected OTP on their own handset) during the day and freezes
    /// their accounts. The active MitM diverts the SMS entirely, so it is
    /// never subject to this roll; at night (00:00–06:00 simulated time)
    /// vigilance drops to 15% of its daytime value — the paper's
    /// "midnight timing" remark.
    pub victim_vigilance: f64,
    /// Seed for the detection rolls (runs stay deterministic).
    pub detection_seed: u64,
}

impl Default for ChainReactionAttack {
    fn default() -> Self {
        Self {
            platform: Platform::MobileApp,
            profile: AttackerProfile::paper_default(),
            mode: InterceptMode::PassiveSniffing { crack_bits: 16 },
            max_chains: 8,
            victim_vigilance: 0.0,
            detection_seed: 0,
        }
    }
}

/// Outcome of one executed chain.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// The final target.
    pub target: ServiceId,
    /// The strategy chain that was executed.
    pub chain: AttackChain,
    /// Every account compromised, in order.
    pub compromised: Vec<CompromisedAccount>,
    /// Whether the victim could have noticed SMS arriving (passive mode).
    pub stealthy: bool,
    /// Proof-of-impact payment receipt when the target processes payments.
    pub receipt: Option<String>,
    /// Simulated wall-clock the whole chain consumed (protocol steps,
    /// OTP pacing and key-cracking latency included), in milliseconds.
    pub sim_elapsed_ms: u64,
    /// The dossier's acquisition log.
    pub log: Vec<String>,
}

impl ChainReactionAttack {
    /// Plans and executes a chain ending at `target`.
    ///
    /// # Errors
    ///
    /// - [`AttackError::NoChain`] when the backward query finds no route
    ///   (or does not know the target).
    /// - Intrusion/interception failures if every candidate chain fails.
    pub fn execute(
        &self,
        eco: &mut Ecosystem,
        victim_phone: &Msisdn,
        target: &ServiceId,
    ) -> Result<ChainReport, AttackError> {
        let _span = obs::span("attack.execute");
        let specs: Vec<_> = eco.specs().into_iter().cloned().collect();
        // The only failure a default-budget query can report is an
        // unknown target, which has no chain either.
        let chains = Analysis::over(&specs, self.platform, self.profile)
            .backward(target)
            .max_chains(self.max_chains)
            .engine(Engine::Prepared)
            .run()
            .map_err(|_| AttackError::NoChain(target.to_string()))?;
        if chains.is_empty() {
            return Err(AttackError::NoChain(target.to_string()));
        }
        obs::add("attack.chains_planned", chains.len() as u64);

        let mut last_err: Option<AttackError> = None;
        for chain in chains {
            obs::add("attack.chains_attempted", 1);
            match self.execute_chain(eco, victim_phone, target, &chain) {
                Ok(report) => return Ok(report),
                // Once the victim noticed and froze everything, trying
                // further chains is pointless.
                Err(e @ AttackError::Detected(_)) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| AttackError::NoChain(target.to_string())))
    }

    fn execute_chain(
        &self,
        eco: &mut Ecosystem,
        victim_phone: &Msisdn,
        target: &ServiceId,
        chain: &AttackChain,
    ) -> Result<ChainReport, AttackError> {
        let _span = obs::span("attack.chain");
        let started_ms = eco.now_ms();
        let victim_email = eco
            .people()
            .find(|p| &p.phone == victim_phone)
            .map(|p| p.email.clone())
            .ok_or_else(|| AttackError::ReconFailed(format!("no person with {victim_phone}")))?;
        let mut interceptor = match self.mode {
            InterceptMode::PassiveSniffing { crack_bits } => Interceptor::passive(eco, crack_bits)?,
            InterceptMode::ActiveMitm => Interceptor::active(eco, victim_phone)?,
            InterceptMode::Phishing { gullible } => {
                Interceptor::phishing(eco, victim_phone, "AcctSafety", gullible)?
            }
            InterceptMode::PassiveRainbowTables { seed } => Interceptor::passive_with_tables(
                eco,
                actfort_gsm::a5::RainbowTableModel::new(seed),
            )?,
        };
        let mut dossier = Dossier::new(victim_phone.digits(), &victim_email);
        if self.profile.social_engineering_db {
            // Targeted attacks seed the dossier from the leak database.
            if let Some(p) = eco.people().find(|p| &p.phone == victim_phone) {
                let (name, addr) = (p.real_name.clone(), p.address.clone());
                dossier.add_known(actfort_ecosystem::info::PersonalInfoKind::RealName, &name, "leak db");
                dossier.add_known(actfort_ecosystem::info::PersonalInfoKind::Address, &addr, "leak db");
            }
        }

        let mut detection_rng =
            rand::rngs::StdRng::seed_from_u64(self.detection_seed ^ fxhash(victim_phone.digits()));
        let mut compromised = Vec::new();
        for (step_idx, step) in chain.steps.iter().enumerate() {
            let step_no = (step_idx + 1).to_string();
            for service in &step.services {
                obs::event(
                    "attack.step",
                    &[("step", &step_no), ("service", service.as_str())],
                );
                let acct = compromise(eco, victim_phone, service, &mut interceptor, &mut dossier)?;
                obs::add("attack.accounts_compromised", 1);
                compromised.push(acct);
                // §V-A2 stealth caveat: visible interception leaves the
                // OTP on the victim's handset; a vigilant victim freezes
                // everything and the chain dies here.
                if interceptor.leaves_otp_on_handset() && self.victim_vigilance > 0.0 {
                    let hour = (eco.gsm.clock().millis() / 3_600_000) % 24;
                    let factor = if hour < 6 { 0.15 } else { 1.0 };
                    let p = (self.victim_vigilance * factor).clamp(0.0, 1.0);
                    if detection_rng.gen_bool(p) {
                        if let Some(person) = eco.person_by_phone(victim_phone) {
                            let frozen = eco.freeze_person_everywhere(person);
                            interceptor.release(eco);
                            return Err(AttackError::Detected(format!(
                                "unexpected OTP noticed after {service}; {frozen} accounts frozen"
                            )));
                        }
                    }
                }
            }
        }

        // Impact: drain money when the target is a Fintech service.
        let receipt = {
            let is_fintech = eco
                .service(target)
                .map(|s| s.spec().domain == ServiceDomain::Fintech)
                .unwrap_or(false);
            let session = compromised
                .iter()
                .rev()
                .find(|a| &a.service == target)
                .map(|a| a.session);
            match (is_fintech, session) {
                (true, Some(session)) => {
                    eco.service_mut(target).and_then(|s| s.make_payment(session, 99_900).ok())
                }
                _ => None,
            }
        };

        let stealthy = interceptor.is_stealthy();
        interceptor.release(eco);
        Ok(ChainReport {
            target: target.clone(),
            chain: chain.clone(),
            compromised,
            stealthy,
            receipt,
            sim_elapsed_ms: eco.now_ms().saturating_sub(started_ms),
            log: dossier.log.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;
    use actfort_ecosystem::population::PopulationBuilder;
    use actfort_gsm::network::NetworkConfig;

    fn world() -> (Ecosystem, Msisdn) {
        let mut eco = Ecosystem::with_network(
            9,
            NetworkConfig { session_key_bits: 16, ..Default::default() },
        );
        let mut person = PopulationBuilder::new(31).person();
        person.email = format!("victim{}@gmail.com", person.id.0);
        let phone = person.phone.clone();
        eco.add_person(person).unwrap();
        for spec in curated_services() {
            eco.add_service(spec).unwrap();
        }
        eco.enroll_everyone().unwrap();
        (eco, phone)
    }

    #[test]
    fn full_chain_reaches_paypal_and_pays() {
        let (mut eco, phone) = world();
        let attack = ChainReactionAttack { platform: Platform::Web, ..Default::default() };
        let report = attack.execute(&mut eco, &phone, &"paypal".into()).unwrap();
        assert_eq!(report.target, ServiceId::new("paypal"));
        assert!(report.compromised.iter().any(|a| a.service.as_str() == "paypal" && a.took_over));
        assert!(report.receipt.is_some(), "payment made from stolen PayPal");
        assert!(!report.stealthy, "passive sniffing is observable");
        assert!(report.log.iter().any(|l| l.contains("intercepted SMS code")));
    }

    #[test]
    fn chain_reaches_alipay_via_citizen_id_harvest() {
        let (mut eco, phone) = world();
        let attack = ChainReactionAttack::default(); // mobile platform
        let report = attack.execute(&mut eco, &phone, &"alipay".into()).unwrap();
        assert!(report.compromised.len() >= 2, "needs a middle account");
        assert!(report.receipt.is_some());
    }

    #[test]
    fn active_mitm_chain_is_stealthy() {
        let (mut eco, phone) = world();
        let attack = ChainReactionAttack {
            mode: InterceptMode::ActiveMitm,
            platform: Platform::Web,
            ..Default::default()
        };
        let report = attack.execute(&mut eco, &phone, &"jd".into()).unwrap();
        assert!(report.stealthy);
        let sub = eco.gsm.subscriber_by_msisdn(&phone).unwrap();
        assert!(eco.gsm.terminal(sub).unwrap().inbox().is_empty(), "victim saw nothing");
    }

    #[test]
    fn vigilant_victims_freeze_out_visible_attacks_but_not_the_mitm() {
        // Daytime + perfectly vigilant victim: a multi-step passive chain
        // is detected at the first visible OTP, the accounts freeze, and
        // even the step that already succeeded is followed by nothing.
        let (mut eco, phone) = world();
        eco.advance_ms(14 * 3_600_000); // 14:00 simulated time
        let attack = ChainReactionAttack {
            platform: Platform::Web,
            victim_vigilance: 1.0,
            ..Default::default()
        };
        let err = attack.execute(&mut eco, &phone, &"paypal".into());
        assert!(matches!(err, Err(AttackError::Detected(_))), "got {err:?}");
        // The frozen accounts refuse even legitimate-looking flows now.
        let gmail_acct = eco
            .service(&"gmail".into())
            .unwrap()
            .find_account(&actfort_ecosystem::service::AccountLocator::Phone(phone.clone()))
            .unwrap();
        assert!(eco.service(&"gmail".into()).unwrap().is_frozen(gmail_acct));

        // The same vigilant victim at 3 a.m. — the paper's midnight
        // timing: detection odds collapse and the chain usually lands.
        let (mut eco, phone) = world();
        eco.advance_ms(3 * 3_600_000);
        let night = ChainReactionAttack {
            platform: Platform::Web,
            victim_vigilance: 0.5,
            detection_seed: 4,
            ..Default::default()
        };
        assert!(night.execute(&mut eco, &phone, &"paypal".into()).is_ok());

        // And the active MitM never shows the victim anything, so full
        // vigilance is irrelevant.
        let (mut eco, phone) = world();
        eco.advance_ms(14 * 3_600_000);
        let mitm = ChainReactionAttack {
            platform: Platform::Web,
            mode: InterceptMode::ActiveMitm,
            victim_vigilance: 1.0,
            ..Default::default()
        };
        assert!(mitm.execute(&mut eco, &phone, &"paypal".into()).is_ok());
    }

    #[test]
    fn rainbow_table_chain_beats_strong_crypto_over_the_air() {
        // Full-strength keys: the exhaustive-search rig fails, the
        // table-backed rig succeeds (at its hit rate) without any victim
        // cooperation — the paper's actual field method.
        let mut eco = Ecosystem::with_network(15, NetworkConfig::default());
        let mut person = PopulationBuilder::new(35).person();
        person.email = format!("v{}@gmail.com", person.id.0);
        let phone = person.phone.clone();
        eco.add_person(person).unwrap();
        for spec in curated_services() {
            eco.add_service(spec).unwrap();
        }
        eco.enroll_everyone().unwrap();

        let attack = ChainReactionAttack {
            platform: Platform::Web,
            mode: InterceptMode::PassiveRainbowTables { seed: 3 },
            max_chains: 8,
            ..Default::default()
        };
        let report = attack.execute(&mut eco, &phone, &"paypal".into()).unwrap();
        assert!(report.receipt.is_some());
        assert!(
            report.sim_elapsed_ms >= 2_000,
            "table lookups cost seconds, charged to the chain ({} ms)",
            report.sim_elapsed_ms
        );
    }

    #[test]
    fn phishing_chain_beats_strong_crypto_when_victim_complies() {
        // Full-strength session keys: the radio rigs are useless, but the
        // §II remote phishing variant still completes the chain.
        let mut eco = Ecosystem::with_network(9, NetworkConfig::default());
        let mut person = PopulationBuilder::new(33).person();
        person.email = format!("v{}@gmail.com", person.id.0);
        let phone = person.phone.clone();
        eco.add_person(person).unwrap();
        for spec in curated_services() {
            eco.add_service(spec).unwrap();
        }
        eco.enroll_everyone().unwrap();

        let attack = ChainReactionAttack {
            platform: Platform::Web,
            mode: InterceptMode::Phishing { gullible: true },
            ..Default::default()
        };
        let report = attack.execute(&mut eco, &phone, &"paypal".into()).unwrap();
        assert!(report.receipt.is_some());
        assert!(!report.stealthy, "phishing requires the victim's participation");

        // A wary victim ends the campaign.
        let mut eco2 = Ecosystem::with_network(9, NetworkConfig::default());
        let mut person = PopulationBuilder::new(34).person();
        person.email = format!("v{}@gmail.com", person.id.0);
        let phone2 = person.phone.clone();
        eco2.add_person(person).unwrap();
        for spec in curated_services() {
            eco2.add_service(spec).unwrap();
        }
        eco2.enroll_everyone().unwrap();
        let wary = ChainReactionAttack {
            platform: Platform::Web,
            mode: InterceptMode::Phishing { gullible: false },
            ..Default::default()
        };
        assert!(wary.execute(&mut eco2, &phone2, &"paypal".into()).is_err());
    }

    #[test]
    fn robust_target_yields_no_chain() {
        let (mut eco, phone) = world();
        let attack = ChainReactionAttack { platform: Platform::Web, ..Default::default() };
        let err = attack.execute(&mut eco, &phone, &"union-bank".into());
        assert!(matches!(err, Err(AttackError::NoChain(_))));
    }

    #[test]
    fn strong_session_keys_defeat_passive_chains() {
        // Same world but with full-strength A5/1 keys: the sniffer cracks
        // nothing, so every chain attempt dies at interception.
        let mut eco = Ecosystem::with_network(9, NetworkConfig::default());
        let mut person = PopulationBuilder::new(32).person();
        person.email = format!("v{}@gmail.com", person.id.0);
        let phone = person.phone.clone();
        eco.add_person(person).unwrap();
        for spec in curated_services() {
            eco.add_service(spec).unwrap();
        }
        eco.enroll_everyone().unwrap();
        let attack = ChainReactionAttack { platform: Platform::Web, ..Default::default() };
        let err = attack.execute(&mut eco, &phone, &"paypal".into());
        assert!(err.is_err(), "strong keys must stop the passive attack");
    }
}
