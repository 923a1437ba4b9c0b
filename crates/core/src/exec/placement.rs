//! Placement-aware dispatch: running a batch in a planned claim order.
//!
//! The cost plane's planner (`fleet::plan`) decides *which* instance
//! class each job should run on; this module is how that decision
//! reaches the executor without changing any backend. A
//! [`PlacementPlan`] is a validated permutation of job indices — the
//! claim order, jobs grouped by their assigned instance. Every queue
//! hands out job indices in order, so queueing the permuted job list
//! ([`PlacementPlan::apply`]) *is* dispatching in placed order, and
//! [`PlacementPlan::restore`] puts the per-job results back in job
//! order afterwards. A placement changes *when* a job is claimed, never
//! *what* it produces, preserving the executor's determinism contract
//! byte for byte.

/// Why a job ordering was rejected as a placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// An index appeared twice (second occurrence reported).
    Duplicate(usize),
    /// An index was at or past the batch length.
    OutOfRange(usize),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::Duplicate(i) => write!(f, "job {i} placed twice"),
            PlacementError::OutOfRange(i) => write!(f, "job {i} out of batch range"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A validated claim order: `order[k]` is the job dispatched `k`-th.
/// Always a permutation of `0..len`, so every job runs exactly once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementPlan {
    order: Vec<usize>,
    /// Inverse map: `slot_of[job]` = the claim slot that dispatches it.
    slot_of: Vec<usize>,
}

impl PlacementPlan {
    /// Validates `order` as a permutation of `0..order.len()`.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] when an index repeats or exceeds the range.
    pub fn new(order: Vec<usize>) -> Result<PlacementPlan, PlacementError> {
        let mut slot_of = vec![usize::MAX; order.len()];
        for (slot, &job) in order.iter().enumerate() {
            if job >= order.len() {
                return Err(PlacementError::OutOfRange(job));
            }
            if slot_of[job] != usize::MAX {
                return Err(PlacementError::Duplicate(job));
            }
            slot_of[job] = slot;
        }
        Ok(PlacementPlan { order, slot_of })
    }

    /// The claim order (a permutation of `0..len`).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// `items` reordered into claim order (`out[k] = items[order[k]]`).
    pub fn apply<T: Clone>(&self, items: &[T]) -> Vec<T> {
        assert_eq!(items.len(), self.order.len(), "placement covers the whole batch");
        self.order.iter().map(|&j| items[j].clone()).collect()
    }

    /// The inverse of [`PlacementPlan::apply`]: `items` in claim order
    /// put back in job order (`out[order[k]] = items[k]`).
    pub fn restore<T>(&self, items: Vec<T>) -> Vec<T> {
        assert_eq!(items.len(), self.order.len(), "placement covers the whole batch");
        let mut placed: Vec<Option<T>> = items.into_iter().map(Some).collect();
        self.slot_of.iter().map(|&slot| placed[slot].take().expect("a permutation")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_validate() {
        assert!(PlacementPlan::new(vec![2, 0, 1]).is_ok());
        assert_eq!(PlacementPlan::new(vec![0, 0, 1]), Err(PlacementError::Duplicate(0)));
        assert_eq!(PlacementPlan::new(vec![0, 3, 1]), Err(PlacementError::OutOfRange(3)));
        assert!(PlacementPlan::new(Vec::new()).unwrap().order().is_empty());
    }

    #[test]
    fn apply_reorders_and_restore_inverts() {
        let plan = PlacementPlan::new(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(plan.order(), &[2, 0, 3, 1]);
        assert_eq!(plan.apply(&["a", "b", "c", "d"]), vec!["c", "a", "d", "b"]);
        assert_eq!(plan.restore(vec!["c", "a", "d", "b"]), vec!["a", "b", "c", "d"]);
    }
}
