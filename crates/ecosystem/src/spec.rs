//! Static service profiles — what ActFort analyses.
//!
//! A [`ServiceSpec`] captures everything the paper's Authentication
//! Process and Personal Information Collection record about a service:
//! its authentication paths per platform and purpose, and which
//! information its account pages expose under which masking.

use crate::factor::{CredentialFactor, ServiceId};
use crate::info::{ExposedField, PersonalInfoKind};
use crate::policy::{AuthPath, EdgeClass, Platform, Purpose};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A service's recovery-policy columns: which recovery deployments it
/// offers and how they are gated. Derived from the recovery-class
/// authentication paths ([`Purpose::is_recovery`]) so the dataset keeps
/// a single source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// A recovery path accepts an SMS code (SMS fallback).
    pub sms_fallback: bool,
    /// A recovery path accepts an email code or link (email fallback).
    pub email_fallback: bool,
    /// A recovery path goes through human support (customer service, or
    /// an explicit support-reset flow).
    pub support_reset: bool,
    /// The service offers an MFA-disable flow.
    pub mfa_disable: bool,
    /// Every recovery path requires a robust factor — recovery is no
    /// weaker than login.
    pub robust_recovery: bool,
}

/// Business domain of a service (the paper splits its measurement by
/// these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ServiceDomain {
    /// Payment / banking / finance.
    Fintech,
    /// Mail providers.
    Email,
    /// Social networks and messaging.
    SocialNetwork,
    /// Online shopping.
    Ecommerce,
    /// Travel booking, rail, lodging.
    Travel,
    /// Cloud storage.
    CloudStorage,
    /// News and media.
    News,
    /// Video / streaming.
    Video,
    /// Transport / local services.
    LocalServices,
    /// Everything else.
    Other,
}

impl fmt::Display for ServiceDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceDomain::Fintech => "fintech",
            ServiceDomain::Email => "email",
            ServiceDomain::SocialNetwork => "social network",
            ServiceDomain::Ecommerce => "e-commerce",
            ServiceDomain::Travel => "travel",
            ServiceDomain::CloudStorage => "cloud storage",
            ServiceDomain::News => "news",
            ServiceDomain::Video => "video",
            ServiceDomain::LocalServices => "local services",
            ServiceDomain::Other => "other",
        };
        f.pad(s)
    }
}

/// A complete static profile of one online service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Stable identifier.
    pub id: ServiceId,
    /// Display name.
    pub name: String,
    /// Business domain.
    pub domain: ServiceDomain,
    /// Every authentication path, across platforms and purposes.
    pub paths: Vec<AuthPath>,
    /// Information exposed post-login on the web client.
    pub web_exposure: Vec<ExposedField>,
    /// Information exposed post-login in the mobile app.
    pub mobile_exposure: Vec<ExposedField>,
    /// Whether the service exists as a website.
    pub has_web: bool,
    /// Whether the service ships a mobile app.
    pub has_mobile: bool,
}

impl ServiceSpec {
    /// Starts a builder for a service.
    pub fn builder(id: &str, name: &str, domain: ServiceDomain) -> ServiceSpecBuilder {
        ServiceSpecBuilder {
            spec: ServiceSpec {
                id: ServiceId::new(id),
                name: name.to_owned(),
                domain,
                paths: Vec::new(),
                web_exposure: Vec::new(),
                mobile_exposure: Vec::new(),
                has_web: true,
                has_mobile: true,
            },
        }
    }

    /// Whether the service exists on `platform` (as a website or an
    /// app) — the eligibility test every platform-scoped analysis uses.
    pub fn on(&self, platform: Platform) -> bool {
        match platform {
            Platform::Web => self.has_web,
            Platform::MobileApp => self.has_mobile,
        }
    }

    /// Paths available on `platform` for `purpose`.
    pub fn paths_for(&self, platform: Platform, purpose: Purpose) -> Vec<&AuthPath> {
        self.paths
            .iter()
            .filter(|p| p.platform == platform && p.purpose == purpose)
            .collect()
    }

    /// All paths on a platform.
    pub fn paths_on(&self, platform: Platform) -> Vec<&AuthPath> {
        self.paths.iter().filter(|p| p.platform == platform).collect()
    }

    /// Paths on a platform in the given edge class.
    pub fn paths_in(&self, platform: Platform, class: EdgeClass) -> Vec<&AuthPath> {
        self.paths
            .iter()
            .filter(|p| p.platform == platform && class.admits(p.purpose))
            .collect()
    }

    /// The service's recovery-policy columns, derived from its
    /// recovery-class paths across both platforms.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        let mut policy = RecoveryPolicy { robust_recovery: true, ..RecoveryPolicy::default() };
        let mut any = false;
        for p in self.paths.iter().filter(|p| p.purpose.is_recovery()) {
            any = true;
            for f in &p.factors {
                match f {
                    CredentialFactor::SmsCode => policy.sms_fallback = true,
                    CredentialFactor::EmailCode | CredentialFactor::EmailLink => {
                        policy.email_fallback = true
                    }
                    CredentialFactor::CustomerService => policy.support_reset = true,
                    _ => {}
                }
            }
            if p.purpose == Purpose::SupportReset {
                policy.support_reset = true;
            }
            if p.purpose == Purpose::MfaDisable {
                policy.mfa_disable = true;
            }
            if !p.factors.iter().any(|f| f.is_robust()) {
                policy.robust_recovery = false;
            }
        }
        policy.robust_recovery &= any;
        policy
    }

    /// Exposure list for a platform.
    pub fn exposure_on(&self, platform: Platform) -> &[ExposedField] {
        match platform {
            Platform::Web => &self.web_exposure,
            Platform::MobileApp => &self.mobile_exposure,
        }
    }

    /// Whether any path on any platform is phone+SMS only (fringe node).
    pub fn has_sms_only_path(&self) -> bool {
        self.paths.iter().any(|p| p.is_sms_only())
    }

    /// Whether the service exposes `kind` on `platform` at all.
    pub fn exposes(&self, platform: Platform, kind: PersonalInfoKind) -> bool {
        self.exposure_on(platform).iter().any(|e| e.kind == kind)
    }

    /// The factors used anywhere in this service's paths, deduplicated.
    pub fn factor_universe(&self) -> Vec<CredentialFactor> {
        let mut out: Vec<CredentialFactor> = Vec::new();
        for p in &self.paths {
            for f in &p.factors {
                if !out.contains(f) {
                    out.push(f.clone());
                }
            }
        }
        out
    }
}

/// Builder for [`ServiceSpec`].
#[derive(Debug, Clone)]
pub struct ServiceSpecBuilder {
    spec: ServiceSpec,
}

impl ServiceSpecBuilder {
    /// Adds an authentication path.
    pub fn path(
        mut self,
        purpose: Purpose,
        platform: Platform,
        factors: &[CredentialFactor],
    ) -> Self {
        self.spec.paths.push(AuthPath::new(purpose, platform, factors.to_vec()));
        self
    }

    /// Adds the same path on both platforms.
    pub fn path_both(mut self, purpose: Purpose, factors: &[CredentialFactor]) -> Self {
        self.spec.paths.push(AuthPath::new(purpose, Platform::Web, factors.to_vec()));
        self.spec
            .paths
            .push(AuthPath::new(purpose, Platform::MobileApp, factors.to_vec()));
        self
    }

    /// Adds a web-exposed field.
    pub fn expose_web(mut self, field: ExposedField) -> Self {
        self.spec.web_exposure.push(field);
        self
    }

    /// Adds a mobile-exposed field.
    pub fn expose_mobile(mut self, field: ExposedField) -> Self {
        self.spec.mobile_exposure.push(field);
        self
    }

    /// Adds a field exposed identically on both platforms.
    pub fn expose_both(mut self, field: ExposedField) -> Self {
        self.spec.web_exposure.push(field);
        self.spec.mobile_exposure.push(field);
        self
    }

    /// Marks the service web-only.
    pub fn web_only(mut self) -> Self {
        self.spec.has_mobile = false;
        self
    }

    /// Marks the service mobile-only.
    pub fn mobile_only(mut self) -> Self {
        self.spec.has_web = false;
        self
    }

    /// Finalises the spec.
    ///
    /// # Panics
    ///
    /// Panics when no authentication path was added.
    pub fn build(self) -> ServiceSpec {
        assert!(!self.spec.paths.is_empty(), "service needs at least one authentication path");
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::CredentialFactor as F;
    use crate::info::Masking;

    fn sample() -> ServiceSpec {
        ServiceSpec::builder("ctrip", "Ctrip", ServiceDomain::Travel)
            .path_both(Purpose::SignIn, &[F::SmsCode])
            .path(Purpose::PasswordReset, Platform::Web, &[F::SmsCode])
            .path(Purpose::PasswordReset, Platform::MobileApp, &[F::EmailCode])
            .expose_both(ExposedField::clear(PersonalInfoKind::CitizenId))
            .expose_web(ExposedField {
                kind: PersonalInfoKind::CellphoneNumber,
                masking: Masking::Partial { prefix: 3, suffix: 4 },
            })
            .build()
    }

    #[test]
    fn builder_produces_queryable_spec() {
        let s = sample();
        assert_eq!(s.paths.len(), 4);
        assert_eq!(s.paths_for(Platform::Web, Purpose::SignIn).len(), 1);
        assert_eq!(s.paths_for(Platform::MobileApp, Purpose::PasswordReset).len(), 1);
        assert!(s.has_sms_only_path());
        assert!(s.exposes(Platform::Web, PersonalInfoKind::CitizenId));
        assert!(s.exposes(Platform::Web, PersonalInfoKind::CellphoneNumber));
        assert!(!s.exposes(Platform::MobileApp, PersonalInfoKind::CellphoneNumber));
    }

    #[test]
    fn factor_universe_dedups() {
        let s = sample();
        let u = s.factor_universe();
        assert_eq!(u.iter().filter(|f| **f == F::SmsCode).count(), 1);
        assert!(u.contains(&F::EmailCode));
    }

    #[test]
    #[should_panic(expected = "at least one authentication path")]
    fn empty_spec_panics() {
        ServiceSpec::builder("x", "X", ServiceDomain::Other).build();
    }
}
