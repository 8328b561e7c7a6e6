//! Stamped per-slot records for O(1) resets between searches.
//!
//! BSSR executes the modified Dijkstra algorithm many times per query
//! (Algorithm 1, line 9). Reinitialising |V| + |P| entries each time would
//! dominate the run time on city-scale graphs, so every slot carries a
//! stamp next to its payload: advancing the epoch invalidates every slot at
//! once. One search's whole state for a vertex — distance, parent or path
//! similarity, and whether it is settled — lives in one record, so a
//! relaxation touches one cache line instead of one per parallel array.
//!
//! A record is in one of three states in the current epoch `e`:
//! *unseen* (any older stamp), *reached* (stamp `e`: the payload holds the
//! best value found so far) or *settled* (stamp `e + 1`: the payload is
//! final). The epoch advances by 2 per clear; a wrap-around clears the
//! stamps once every ~2³¹ clears.
//!
//! A never-used record holds `T::default()` and stamp 0. For payloads made
//! of numbers and tuples of numbers that is all zero bytes, which `vec!`
//! takes from the allocator as zeroed memory without writing it: a
//! workspace for a city-sized graph costs no page writes until searches
//! reach its records. (A payload `struct` would be written out slot by
//! slot, so the callers' payloads are tuples.)

/// The largest epoch whose settled stamp (`epoch + 1`) still fits a `u32`.
const LAST_EPOCH: u32 = u32::MAX - 2;

/// A fixed-size array of stamped records, logically cleared in O(1).
#[derive(Clone, Debug)]
pub struct StampedRecords<T> {
    /// Per record: its payload and its stamp.
    slots: Vec<(T, u32)>,
    /// The payload an unseen record starts from when first reached.
    init: T,
    /// Odd: stamps `epoch` (reached) and `epoch + 1` (settled) are live.
    epoch: u32,
}

impl<T: Copy + Default> StampedRecords<T> {
    /// `n` unseen records; a record first reached starts as `init`.
    pub fn new(n: usize, init: T) -> StampedRecords<T> {
        StampedRecords { slots: vec![(T::default(), 0); n], init, epoch: 1 }
    }

    /// Capacity (number of records).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are zero records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Makes every record unseen in O(1) (amortised: a wrap-around resets
    /// the stamps once every ~2³¹ clears).
    pub fn clear(&mut self) {
        if self.epoch < LAST_EPOCH {
            self.epoch += 2;
        } else {
            self.slots.iter_mut().for_each(|(_, stamp)| *stamp = 0);
            self.epoch = 1;
        }
    }

    /// Grows to at least `n` records; the new ones are unseen.
    pub fn resize(&mut self, n: usize) {
        if n > self.slots.len() {
            self.slots.resize(n, (T::default(), 0));
        }
    }

    /// Payload of record `i` if it was reached or settled this epoch.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        let (value, stamp) = self.slots[i];
        (stamp >= self.epoch).then_some(value)
    }

    /// Whether record `i` was settled this epoch.
    #[inline]
    pub fn is_settled(&self, i: usize) -> bool {
        self.slots[i].1 == self.epoch + 1
    }

    /// The payload of record `i` for a search to improve, or `None` once
    /// the record is settled. An unseen record becomes reached with the
    /// `init` payload.
    #[inline]
    pub fn reach(&mut self, i: usize) -> Option<&mut T> {
        let (value, stamp) = &mut self.slots[i];
        if *stamp != self.epoch {
            if *stamp > self.epoch {
                return None;
            }
            (*value, *stamp) = (self.init, self.epoch);
        }
        Some(value)
    }

    /// Settles reached record `i` and returns its payload, or `None` if it
    /// was already settled (a stale heap entry).
    #[inline]
    pub fn settle(&mut self, i: usize) -> Option<T> {
        let (value, stamp) = &mut self.slots[i];
        debug_assert!(*stamp >= self.epoch, "settling an unseen record");
        if *stamp > self.epoch {
            return None;
        }
        *stamp = self.epoch + 1;
        Some(*value)
    }

    /// Moves the epoch to where `clears` more clears wrap it around, which
    /// also makes every record unseen. Lets tests cross a wrap-around
    /// without 2³¹ clears.
    #[cfg(test)]
    pub(crate) fn clear_near_wrap(&mut self, clears: u32) {
        assert!(clears < LAST_EPOCH / 2, "cannot start {clears} clears before a wrap");
        self.epoch = LAST_EPOCH - 2 * clears;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut a = StampedRecords::new(4, f64::INFINITY);
        assert_eq!(a.get(0), None);
        *a.reach(0).unwrap() = 1.5;
        assert_eq!(a.get(0), Some(1.5));
        assert!(!a.is_settled(0));
        assert_eq!(a.settle(0), Some(1.5));
        assert_eq!(a.get(0), Some(1.5));
        assert!(a.is_settled(0));
        assert_eq!(a.get(1), None);
        assert!(!a.is_settled(1));
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut a = StampedRecords::new(3, 0u32);
        *a.reach(1).unwrap() = 7;
        *a.reach(2).unwrap() = 8;
        a.settle(2);
        a.clear();
        assert_eq!(a.get(1), None);
        assert_eq!(a.get(2), None);
        assert!(!a.is_settled(2));
        assert_eq!(a.reach(2).copied(), Some(0), "a cleared record restarts from init");
        *a.reach(1).unwrap() = 9;
        assert_eq!(a.get(1), Some(9));
    }

    #[test]
    fn get_or_insert_initialises_once() {
        let mut a = StampedRecords::new(2, 10u32);
        *a.reach(0).unwrap() += 1;
        *a.reach(0).unwrap() += 1;
        assert_eq!(a.get(0), Some(12));
        // A settled record is final: no more updates, a second settle is a
        // stale entry.
        assert_eq!(a.settle(0), Some(12));
        assert!(a.reach(0).is_none());
        assert_eq!(a.settle(0), None);
        assert_eq!(a.get(0), Some(12));
    }

    #[test]
    fn resize_preserves_existing_entries() {
        let mut a = StampedRecords::new(2, 0u32);
        *a.reach(1).unwrap() = 3;
        a.resize(10);
        assert_eq!(a.get(1), Some(3));
        assert_eq!(a.get(9), None);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn many_epochs_stay_consistent() {
        let mut a = StampedRecords::new(1, 0u8);
        for i in 0..1000u32 {
            a.clear();
            assert_eq!(a.get(0), None);
            *a.reach(0).unwrap() = (i % 256) as u8;
            if i % 2 == 0 {
                a.settle(0);
            }
            assert_eq!(a.get(0), Some((i % 256) as u8));
        }
    }

    #[test]
    fn wrap_around_resets_reached_and_settled_records() {
        let mut a = StampedRecords::new(3, 0u32);
        a.clear_near_wrap(2);
        for round in 0..5u32 {
            for i in 0..3 {
                assert_eq!(a.get(i), None, "round {round}: record {i} leaked");
                assert!(!a.is_settled(i));
            }
            *a.reach(0).unwrap() = round;
            *a.reach(1).unwrap() = round;
            assert_eq!(a.settle(1), Some(round));
            a.clear();
        }
    }
}
