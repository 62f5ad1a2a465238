//! Phase identifiers.

/// The identifier of a phase produced by the classifier.
///
/// ID 0 is reserved for the **transition phase** (Section 4.4): the shared
/// bucket for intervals whose signatures have not (yet) recurred often
/// enough to be considered stable behaviour. All stable phases receive IDs
/// starting from 1 in order of discovery.
///
/// # Example
///
/// ```
/// use tpcp_core::PhaseId;
///
/// assert!(PhaseId::TRANSITION.is_transition());
/// assert!(!PhaseId::new(3).is_transition());
/// assert_eq!(PhaseId::new(3).value(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhaseId(u32);

impl PhaseId {
    /// The transition phase (phase ID zero).
    pub const TRANSITION: PhaseId = PhaseId(0);

    /// Wraps a raw phase identifier. `0` denotes the transition phase.
    pub const fn new(id: u32) -> Self {
        PhaseId(id)
    }

    /// The raw identifier value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Whether this is the transition phase.
    pub const fn is_transition(self) -> bool {
        self.0 == 0
    }
}

impl core::fmt::Display for PhaseId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_transition() {
            write!(f, "T")
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

impl From<PhaseId> for u32 {
    fn from(id: PhaseId) -> u32 {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_is_zero() {
        assert_eq!(PhaseId::TRANSITION.value(), 0);
        assert_eq!(PhaseId::default(), PhaseId::TRANSITION);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PhaseId::TRANSITION.to_string(), "T");
        assert_eq!(PhaseId::new(7).to_string(), "P7");
    }

    #[test]
    fn ordering_follows_value() {
        assert!(PhaseId::TRANSITION < PhaseId::new(1));
        assert!(PhaseId::new(1) < PhaseId::new(2));
    }
}
