//! Committed-branch events — the unit of observation for phase tracking.

/// A single committed branch, as observed by the phase tracking hardware.
///
/// The paper's architecture (Section 4.1) records "the PC of every committed
/// branch and the number of instructions committed between the current branch
/// and the last branch". One `BranchEvent` therefore delimits one *dynamic
/// basic block*: `insns` instructions ending in the branch at `pc`.
///
/// # Example
///
/// ```
/// use tpcp_trace::BranchEvent;
///
/// let ev = BranchEvent::new(0x0040_1a2c, 17);
/// assert_eq!(ev.pc, 0x0040_1a2c);
/// assert_eq!(ev.insns, 17);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchEvent {
    /// Program counter of the committed branch instruction.
    pub pc: u64,
    /// Number of instructions committed since the previous branch,
    /// including the branch itself. Always at least 1 for a well-formed
    /// event.
    pub insns: u32,
}

impl BranchEvent {
    /// Creates a branch event for the branch at `pc` ending a dynamic basic
    /// block of `insns` instructions.
    ///
    /// `insns == 0` is permitted (the accumulator simply ignores it), but
    /// sources produced by this workspace always emit `insns >= 1`.
    #[inline]
    pub const fn new(pc: u64, insns: u32) -> Self {
        Self { pc, insns }
    }
}

impl Default for BranchEvent {
    fn default() -> Self {
        Self::new(0, 1)
    }
}

impl core::fmt::Display for BranchEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#010x}+{}", self.pc, self.insns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_stores_fields() {
        let ev = BranchEvent::new(0xdead_beef, 42);
        assert_eq!(ev.pc, 0xdead_beef);
        assert_eq!(ev.insns, 42);
    }

    #[test]
    fn default_is_single_instruction_at_zero() {
        let ev = BranchEvent::default();
        assert_eq!(ev.pc, 0);
        assert_eq!(ev.insns, 1);
    }

    #[test]
    fn display_is_hex_plus_count() {
        let ev = BranchEvent::new(0x1000, 5);
        assert_eq!(ev.to_string(), "0x00001000+5");
    }

    #[test]
    fn ordering_is_by_pc_then_insns() {
        let a = BranchEvent::new(1, 10);
        let b = BranchEvent::new(2, 1);
        let c = BranchEvent::new(2, 2);
        assert!(a < b);
        assert!(b < c);
    }
}
