//! The VSIDS decision order: an indexed binary max-heap over variable ids
//! (MiniSat's order heap).
//!
//! Each variable is in the heap at most once, and `pos` records where, so a
//! bumped variable moves up in place instead of being pushed again. The
//! activities live in the solver and are passed into every operation that
//! compares keys: higher activity first, ties going to the larger index.

use manthan3_cnf::Var;

/// `pos` entry of a variable that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// An indexed binary max-heap of variables keyed by their activity.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarOrder {
    /// The heap, as variable indices.
    heap: Vec<u32>,
    /// Each variable's slot in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

/// Whether `a` goes before `b`: higher activity, then the larger index.
fn before(activity: &[f64], a: u32, b: u32) -> bool {
    let (x, y) = (activity[a as usize], activity[b as usize]);
    x > y || (x == y && a > b)
}

impl VarOrder {
    /// Number of variables in the heap.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether `var` is in the heap.
    pub(crate) fn contains(&self, var: Var) -> bool {
        self.pos.get(var.index()).is_some_and(|&p| p != ABSENT)
    }

    /// Inserts `var` unless it is already in the heap.
    pub(crate) fn insert(&mut self, var: Var, activity: &[f64]) {
        let idx = var.index();
        if self.pos.len() <= idx {
            self.pos.resize(idx + 1, ABSENT);
        }
        if self.pos[idx] != ABSENT {
            return;
        }
        self.heap.push(idx as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the order after `var`'s activity grew; a variable outside
    /// the heap is left out.
    pub(crate) fn increased(&mut self, var: Var, activity: &[f64]) {
        if self.contains(var) {
            self.sift_up(self.pos[var.index()] as usize, activity);
        }
    }

    /// Removes and returns the first variable in the order.
    pub(crate) fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        self.pos[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.sift_down(0, activity);
        }
        Some(Var::new(top))
    }

    /// Re-establishes the heap property over the current contents in O(n),
    /// after activities changed without going through
    /// [`VarOrder::increased`] (the activity rescale, which can collapse
    /// tiny activities into ties).
    pub(crate) fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    /// Whether the positions are consistent with the heap and every parent
    /// goes before its children.
    pub(crate) fn is_consistent(&self, activity: &[f64]) -> bool {
        let positions_match = self
            .heap
            .iter()
            .enumerate()
            .all(|(i, &v)| self.pos[v as usize] == i as u32);
        let present = self.pos.iter().filter(|&&p| p != ABSENT).count();
        let ordered =
            (1..self.heap.len()).all(|i| !before(activity, self.heap[i], self.heap[(i - 1) / 2]));
        positions_match && present == self.heap.len() && ordered
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !before(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && before(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !before(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(order: &mut VarOrder, activity: &[f64]) -> Vec<u32> {
        std::iter::from_fn(|| order.pop(activity).map(|v| v.index() as u32)).collect()
    }

    #[test]
    fn pops_by_activity_then_larger_index() {
        let activity = [1.0, 3.0, 3.0, 0.5, 2.0];
        let mut order = VarOrder::default();
        for v in [3, 0, 4, 1, 2] {
            order.insert(Var::new(v), &activity);
        }
        assert!(order.is_consistent(&activity));
        assert_eq!(drain(&mut order, &activity), [2, 1, 4, 0, 3]);
        assert_eq!(order.len(), 0);
    }

    #[test]
    fn insert_is_idempotent_and_increase_moves_in_place() {
        let mut activity = vec![0.0; 6];
        let mut order = VarOrder::default();
        for v in 0..6 {
            order.insert(Var::new(v), &activity);
            order.insert(Var::new(v), &activity);
        }
        assert_eq!(order.len(), 6);
        activity[1] = 5.0;
        order.increased(Var::new(1), &activity);
        assert!(order.is_consistent(&activity));
        assert_eq!(order.pop(&activity), Some(Var::new(1)));
        assert!(!order.contains(Var::new(1)));
        // An absent variable stays absent when bumped.
        activity[1] = 9.0;
        order.increased(Var::new(1), &activity);
        assert!(!order.contains(Var::new(1)));
        assert_eq!(drain(&mut order, &activity), [5, 4, 3, 2, 0]);
    }

    #[test]
    fn rebuild_restores_the_order_after_arbitrary_key_changes() {
        let mut activity: Vec<f64> = (0..50).map(|i| f64::from(i * 7 % 13)).collect();
        let mut order = VarOrder::default();
        for v in 0..50 {
            order.insert(Var::new(v), &activity);
        }
        for (i, a) in activity.iter_mut().enumerate() {
            *a = ((i * 31) % 17) as f64;
        }
        order.rebuild(&activity);
        assert!(order.is_consistent(&activity));
        let mut expected: Vec<u32> = (0..50).collect();
        expected.sort_by(|&a, &b| {
            activity[b as usize]
                .total_cmp(&activity[a as usize])
                .then(b.cmp(&a))
        });
        assert_eq!(drain(&mut order, &activity), expected);
    }
}
