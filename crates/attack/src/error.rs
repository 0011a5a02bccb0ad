//! Error types for the attack engine.

use std::fmt;

/// Errors produced while executing attacks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AttackError {
    /// No authentication path of the target is attackable with current
    /// capabilities and harvested information.
    NoViablePath(String),
    /// SMS interception produced no usable code.
    InterceptionFailed(String),
    /// The backward query found no chain to the target.
    NoChain(String),
    /// An underlying ecosystem operation failed.
    Ecosystem(actfort_ecosystem::EcosystemError),
    /// An underlying GSM operation failed.
    Gsm(actfort_gsm::GsmError),
    /// Reconnaissance could not produce the victim's phone number.
    ReconFailed(String),
    /// The victim noticed the attack (unexpected OTPs) and froze their
    /// accounts — §V-A2's stealthiness caveat.
    Detected(String),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NoViablePath(s) => write!(f, "no viable authentication path on {s}"),
            AttackError::InterceptionFailed(s) => write!(f, "interception failed: {s}"),
            AttackError::NoChain(s) => write!(f, "no attack chain reaches {s}"),
            AttackError::Ecosystem(e) => write!(f, "ecosystem: {e}"),
            AttackError::Gsm(e) => write!(f, "gsm: {e}"),
            AttackError::ReconFailed(s) => write!(f, "reconnaissance failed: {s}"),
            AttackError::Detected(s) => write!(f, "victim detected the attack: {s}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Ecosystem(e) => Some(e),
            AttackError::Gsm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<actfort_ecosystem::EcosystemError> for AttackError {
    fn from(e: actfort_ecosystem::EcosystemError) -> Self {
        AttackError::Ecosystem(e)
    }
}

impl From<actfort_gsm::GsmError> for AttackError {
    fn from(e: actfort_gsm::GsmError) -> Self {
        AttackError::Gsm(e)
    }
}

impl AttackError {
    /// Stable wire discriminant of this failure, from the 2300–2399
    /// range `actfort_core::Error` reserves for the attack layer (see
    /// the discriminant table in `actfort_core::error`). Codes are
    /// never renumbered.
    pub fn code(&self) -> u16 {
        match self {
            AttackError::NoViablePath(_) => 2301,
            AttackError::InterceptionFailed(_) => 2302,
            AttackError::NoChain(_) => 2303,
            // Wrapped lower-layer failures keep *their* discriminant so
            // the wire code survives the crossing.
            AttackError::Ecosystem(e) => actfort_core::Error::from(e.clone()).code(),
            AttackError::Gsm(e) => actfort_core::Error::from(e.clone()).code(),
            AttackError::ReconFailed(_) => 2304,
            AttackError::Detected(_) => 2305,
        }
    }
}

/// Funnels attack-layer failures into the unified core error: the attack
/// engine sits *above* `actfort-core`, so it maps itself into
/// [`actfort_core::Error::Upstream`] with its stable code assignments.
impl From<AttackError> for actfort_core::Error {
    fn from(e: AttackError) -> Self {
        match e {
            // Lower-layer failures unwrap to their named variant instead
            // of flattening into an opaque upstream message.
            AttackError::Ecosystem(inner) => inner.into(),
            AttackError::Gsm(inner) => inner.into(),
            other => actfort_core::Error::Upstream {
                layer: "attack",
                code: other.code(),
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AttackError>();
    }

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = AttackError::Gsm(actfort_gsm::GsmError::NotAttached);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gsm"));
    }

    #[test]
    fn maps_into_unified_core_error_with_stable_codes() {
        let up = actfort_core::Error::from(AttackError::NoChain("alipay".into()));
        assert_eq!(up.code(), 2303);
        assert_eq!(up.kind(), "attack");
        assert!(up.to_string().contains("alipay"));
        // Wrapped lower-layer failures keep their own layer and code.
        let gsm = actfort_core::Error::from(AttackError::Gsm(actfort_gsm::GsmError::NotAttached));
        assert_eq!(gsm.kind(), "gsm");
        assert_eq!(gsm.code(), 2207);
    }
}
