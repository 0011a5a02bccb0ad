//! Single-account takeover — the attack's step 3 (§V-A3).
//!
//! Given a victim, a target service, an interception capability and the
//! dossier harvested so far, pick an attackable authentication path,
//! trigger its challenges, intercept/read the codes, present the
//! harvested factors, reset the password and loot the profile page.

use crate::dossier::Dossier;
use crate::error::AttackError;
use crate::intercept::Interceptor;
use actfort_ecosystem::factor::{CredentialFactor, ServiceId};
use actfort_ecosystem::host::Ecosystem;
use actfort_ecosystem::info::PersonalInfoKind;
use actfort_ecosystem::policy::{AuthPath, Platform, Purpose};
use actfort_ecosystem::service::{AccountLocator, AuthOutcome, FactorResponse, SessionToken};
use actfort_gsm::identity::Msisdn;

/// A successfully compromised account.
#[derive(Debug, Clone)]
pub struct CompromisedAccount {
    /// The service taken.
    pub service: ServiceId,
    /// A live session on the account.
    pub session: SessionToken,
    /// The platform used.
    pub platform: Platform,
    /// Whether the password was reset (full takeover) rather than a mere
    /// one-time sign-in.
    pub took_over: bool,
    /// The path that fell.
    pub path: AuthPath,
}

/// Whether `factor` can be produced with current capabilities.
fn obtainable(factor: &CredentialFactor, dossier: &Dossier) -> bool {
    match factor {
        CredentialFactor::SmsCode => true, // the interceptor's job
        CredentialFactor::CellphoneNumber => true,
        CredentialFactor::EmailCode | CredentialFactor::EmailLink => dossier.mailbox_owned(),
        CredentialFactor::RealName => dossier.has_full(PersonalInfoKind::RealName),
        CredentialFactor::CitizenId => dossier.has_full(PersonalInfoKind::CitizenId),
        CredentialFactor::BankcardNumber => dossier.has_full(PersonalInfoKind::BankcardNumber),
        CredentialFactor::SecurityQuestion => dossier.has_full(PersonalInfoKind::SecurityAnswers),
        CredentialFactor::CustomerService => dossier.identity_fact_count() >= 3,
        CredentialFactor::LinkedAccount(s) => dossier.owns(s),
        _ => false,
    }
}

/// Orders candidate (platform, purpose, index, path) tuples: full
/// takeovers first, then sign-ins, mobile before web (the paper found
/// mobile ends weaker).
fn candidate_paths(
    spec: &actfort_ecosystem::spec::ServiceSpec,
    dossier: &Dossier,
) -> Vec<(Platform, Purpose, usize, AuthPath)> {
    let mut out = Vec::new();
    for purpose in [Purpose::PasswordReset, Purpose::SignIn] {
        for platform in [Platform::MobileApp, Platform::Web] {
            if !spec.on(platform) {
                continue;
            }
            for (index, path) in spec.paths_for(platform, purpose).into_iter().enumerate() {
                if path.factors.iter().all(|f| obtainable(f, dossier)) {
                    out.push((platform, purpose, index, path.clone()));
                }
            }
        }
    }
    out
}

/// Compromises the victim's account at `service`.
///
/// # Errors
///
/// - [`AttackError::NoViablePath`] when no path is attackable yet (the
///   dossier may need more harvesting first).
/// - Interception and ecosystem failures from the underlying steps.
pub fn compromise(
    eco: &mut Ecosystem,
    victim_phone: &Msisdn,
    service: &ServiceId,
    interceptor: &mut Interceptor,
    dossier: &mut Dossier,
) -> Result<CompromisedAccount, AttackError> {
    let spec = eco
        .service(service)
        .ok_or_else(|| AttackError::Ecosystem(actfort_ecosystem::EcosystemError::UnknownService(
            service.to_string(),
        )))?
        .spec()
        .clone();
    let victim_email = eco
        .people()
        .find(|p| &p.phone == victim_phone)
        .map(|p| p.email.clone())
        .ok_or_else(|| AttackError::ReconFailed(format!("no person with {victim_phone}")))?;

    let candidates = candidate_paths(&spec, dossier);
    if candidates.is_empty() {
        return Err(AttackError::NoViablePath(format!(
            "{service}: dossier holds {} facts, mailbox {}",
            dossier.identity_fact_count(),
            if dossier.mailbox_owned() { "owned" } else { "not owned" }
        )));
    }

    let mut last_err: Option<AttackError> = None;
    for (platform, purpose, index, path) in candidates {
        match attempt_path(
            eco,
            victim_phone,
            &victim_email,
            service,
            &spec.name,
            platform,
            purpose,
            index,
            &path,
            interceptor,
            dossier,
        ) {
            Ok(acct) => {
                loot_profile(eco, service, &acct, dossier);
                // Space attempts out past OTP rate-limit windows.
                eco.advance_ms(61_000);
                return Ok(acct);
            }
            Err(e) => {
                eco.advance_ms(61_000);
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| AttackError::NoViablePath(service.to_string())))
}

#[allow(clippy::too_many_arguments)]
fn attempt_path(
    eco: &mut Ecosystem,
    victim_phone: &Msisdn,
    victim_email: &str,
    service: &ServiceId,
    service_name: &str,
    platform: Platform,
    purpose: Purpose,
    index: usize,
    path: &AuthPath,
    interceptor: &mut Interceptor,
    dossier: &mut Dossier,
) -> Result<CompromisedAccount, AttackError> {
    let challenge = eco.begin_auth(
        service,
        &AccountLocator::Phone(victim_phone.clone()),
        platform,
        purpose,
        index,
    )?;

    let mut responses: Vec<FactorResponse> = Vec::new();
    for factor in &path.factors {
        let response = match factor {
            CredentialFactor::SmsCode => {
                let code = interceptor.next_code(eco, service_name)?;
                // Key-cracking latency is real attack time; charge it.
                eco.advance_ms(code.latency_ms);
                dossier.log.push(format!("{service}: intercepted SMS code {}", code.code));
                FactorResponse::SmsCode(code.code)
            }
            CredentialFactor::EmailCode | CredentialFactor::EmailLink => {
                let mailbox = eco
                    .mail
                    .mailbox(victim_email)
                    .ok_or_else(|| AttackError::InterceptionFailed("mailbox missing".into()))?;
                let msg = mailbox.latest_from(service.as_str()).ok_or_else(|| {
                    AttackError::InterceptionFailed(format!("no mail from {service}"))
                })?;
                let code = msg.extract_code().ok_or_else(|| {
                    AttackError::InterceptionFailed("mail contains no code".into())
                })?;
                dossier.log.push(format!("{service}: read email code {code} from stolen mailbox"));
                if matches!(factor, CredentialFactor::EmailLink) {
                    FactorResponse::EmailLink(code)
                } else {
                    FactorResponse::EmailCode(code)
                }
            }
            CredentialFactor::CellphoneNumber => {
                FactorResponse::CellphoneNumber(victim_phone.digits().to_owned())
            }
            CredentialFactor::RealName => FactorResponse::RealName(
                dossier
                    .full_value(PersonalInfoKind::RealName)
                    .ok_or_else(|| AttackError::NoViablePath("real name unknown".into()))?,
            ),
            CredentialFactor::CitizenId => FactorResponse::CitizenId(
                dossier
                    .full_value(PersonalInfoKind::CitizenId)
                    .ok_or_else(|| AttackError::NoViablePath("citizen ID unknown".into()))?,
            ),
            CredentialFactor::BankcardNumber => FactorResponse::BankcardNumber(
                dossier
                    .full_value(PersonalInfoKind::BankcardNumber)
                    .ok_or_else(|| AttackError::NoViablePath("bankcard unknown".into()))?,
            ),
            CredentialFactor::SecurityQuestion => FactorResponse::SecurityAnswer(
                dossier
                    .full_value(PersonalInfoKind::SecurityAnswers)
                    .ok_or_else(|| AttackError::NoViablePath("security answer unknown".into()))?,
            ),
            CredentialFactor::CustomerService => {
                FactorResponse::CustomerService(dossier.known_facts())
            }
            CredentialFactor::LinkedAccount(s) => FactorResponse::LinkedAccount(s.clone()),
            other => {
                return Err(AttackError::NoViablePath(format!("{service}: cannot forge {other}")))
            }
        };
        responses.push(response);
    }

    let live_links = dossier.owned_services();
    let outcome = eco.complete_auth(service, challenge.id, &responses, &live_links)?;
    let (session, took_over) = match outcome {
        AuthOutcome::Session(t) => (t, false),
        AuthOutcome::PaymentAuthorised(t) => (t, false),
        AuthOutcome::ResetGranted(grant) => {
            let svc = eco.service_mut(service).expect("service exists");
            let token = svc.apply_reset(grant, &format!("pwned-{service}"))?;
            (token, true)
        }
    };
    Ok(CompromisedAccount {
        service: service.clone(),
        session,
        platform,
        took_over,
        path: path.clone(),
    })
}

/// Reads every available profile page of a freshly compromised account
/// into the dossier.
fn loot_profile(
    eco: &Ecosystem,
    service: &ServiceId,
    acct: &CompromisedAccount,
    dossier: &mut Dossier,
) {
    let Some(svc) = eco.service(service) else { return };
    let spec = svc.spec();
    dossier.mark_owned(service, spec.domain);
    for platform in [Platform::Web, Platform::MobileApp] {
        if !spec.on(platform) {
            continue;
        }
        if let Ok(fields) = svc.view_profile(acct.session, platform) {
            dossier.absorb_profile(service, &fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actfort_ecosystem::dataset::curated_services;
    use actfort_ecosystem::population::PopulationBuilder;
    use actfort_gsm::network::NetworkConfig;

    fn world() -> (Ecosystem, Msisdn, String) {
        let mut eco = Ecosystem::with_network(
            3,
            NetworkConfig { session_key_bits: 16, ..Default::default() },
        );
        let mut person = PopulationBuilder::new(21).person();
        person.email = format!("victim{}@gmail.com", person.id.0);
        let phone = person.phone.clone();
        let email = person.email.clone();
        eco.add_person(person).unwrap();
        for spec in curated_services() {
            eco.add_service(spec).unwrap();
        }
        eco.enroll_everyone().unwrap();
        (eco, phone, email)
    }

    #[test]
    fn compromises_sms_only_service_directly() {
        let (mut eco, phone, email) = world();
        let mut icpt = Interceptor::passive(&eco, 16).unwrap();
        let mut dossier = Dossier::new(phone.digits(), &email);
        let acct =
            compromise(&mut eco, &phone, &"ctrip".into(), &mut icpt, &mut dossier).unwrap();
        assert!(acct.took_over, "reset path preferred");
        // Profile loot: the full citizen ID.
        assert!(dossier.has_full(PersonalInfoKind::CitizenId));
        assert!(dossier.owns(&"ctrip".into()));
    }

    #[test]
    fn paypal_needs_mailbox_first() {
        let (mut eco, phone, email) = world();
        let mut icpt = Interceptor::passive(&eco, 16).unwrap();
        let mut dossier = Dossier::new(phone.digits(), &email);
        // Directly: no viable path (email code unreachable).
        let err = compromise(&mut eco, &phone, &"paypal".into(), &mut icpt, &mut dossier);
        assert!(matches!(err, Err(AttackError::NoViablePath(_))));
        // Take Gmail, then PayPal falls.
        compromise(&mut eco, &phone, &"gmail".into(), &mut icpt, &mut dossier).unwrap();
        assert!(dossier.mailbox_owned());
        let acct =
            compromise(&mut eco, &phone, &"paypal".into(), &mut icpt, &mut dossier).unwrap();
        assert!(acct.took_over);
    }

    #[test]
    fn union_bank_resists() {
        let (mut eco, phone, email) = world();
        let mut icpt = Interceptor::passive(&eco, 16).unwrap();
        let mut dossier = Dossier::new(phone.digits(), &email);
        let err = compromise(&mut eco, &phone, &"union-bank".into(), &mut icpt, &mut dossier);
        assert!(matches!(err, Err(AttackError::NoViablePath(_))));
    }

    #[test]
    fn active_interceptor_compromises_stealthily() {
        let (mut eco, phone, email) = world();
        let mut icpt = Interceptor::active(&mut eco, &phone).unwrap();
        let mut dossier = Dossier::new(phone.digits(), &email);
        let acct = compromise(&mut eco, &phone, &"jd".into(), &mut icpt, &mut dossier).unwrap();
        assert!(acct.took_over);
        // Victim's handset saw no OTP at all.
        let sub = eco.gsm.subscriber_by_msisdn(&phone).unwrap();
        assert!(eco.gsm.terminal(sub).unwrap().inbox().is_empty());
        icpt.release(&mut eco);
    }

    #[test]
    fn linked_account_sso_path() {
        let (mut eco, phone, email) = world();
        let mut icpt = Interceptor::passive(&eco, 16).unwrap();
        let mut dossier = Dossier::new(phone.digits(), &email);
        compromise(&mut eco, &phone, &"gmail".into(), &mut icpt, &mut dossier).unwrap();
        // Expedia signs in via the linked Gmail account.
        let acct =
            compromise(&mut eco, &phone, &"expedia".into(), &mut icpt, &mut dossier).unwrap();
        assert_eq!(acct.service, ServiceId::new("expedia"));
    }
}
