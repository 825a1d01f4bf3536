//! The MESI coherence states.
//!
//! The transitions between them live in [`crate::hierarchy`], which is
//! the one MESI implementation.

/// MESI state of one cache line copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// Only copy, dirty.
    Modified,
    /// Only copy, clean.
    Exclusive,
    /// One of possibly several clean copies.
    Shared,
    /// Not present (only used transiently; invalid lines are removed).
    Invalid,
}

impl MesiState {
    /// Must the line be written back to memory when dropped?
    pub fn dirty(self) -> bool {
        self == MesiState::Modified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MesiState::*;

    #[test]
    fn only_modified_is_dirty() {
        assert!(Modified.dirty());
        assert!(!Exclusive.dirty());
        assert!(!Shared.dirty());
    }
}
