//! Slab arena pooling every in-flight flit of one shard.
//!
//! The engine's queues (router input stages, per-output queues, channel
//! pipelines, terminal source queues) used to be `VecDeque`s
//! of `Flit` values; every flit paid allocation and copying on each of
//! its hops. The arena replaces all of them with `u32` handles into one
//! per-shard slab: a flit is allocated once at packet generation,
//! relinked (three `u32` writes) per hop, and freed at ejection or when
//! it crosses a shard boundary by value. Freed slots feed an intrusive
//! free list, so steady-state simulation performs zero per-flit heap
//! allocation.
//!
//! The slab is laid out as two arrays: a 40-byte hot record per flit —
//! the route-hot fields (destination, route, hop/VC state) together
//! with the queue link, the queue's payload word and the channel
//! arrival cycle, everything one hop touches — and the cold timestamps
//! (packet id, creation/injection cycles, read once at ejection), so a
//! hop misses on one record rather than on one array per field.

use crate::flit::{Flit, RouteInfo};

/// Sentinel handle: no entry / end of list.
pub(crate) const NIL: u32 = u32::MAX;

const HEAD: u8 = 1;
const TAIL: u8 = 2;
const LABELED: u8 = 4;

/// Fields read on every hop: route computation, VC selection,
/// switching, and the queue the flit sits on.
#[derive(Debug, Clone, Copy)]
struct FlitHot {
    dest: u32,
    src: u32,
    route: RouteInfo,
    hops: u16,
    vc: u8,
    flags: u8,
    /// Intrusive successor link of whatever [`FlitQueue`] (or the free
    /// list) the slot is currently on.
    next: u32,
    /// Queue-specific payload: the packed [`crate::PortVc`] of the
    /// computed route for input-stage entries, the origin input slot
    /// for output-queue entries.
    aux: u32,
    /// Channel arrival cycle for pipeline entries.
    due: u64,
}

/// Fields read once, at ejection (or when tracing).
#[derive(Debug, Clone, Copy)]
struct FlitCold {
    packet: u64,
    created: u64,
    injected: u64,
    tag: u32,
}

/// One shard's flit slab. Both vectors are parallel, indexed by handle.
#[derive(Debug, Default)]
pub(crate) struct FlitArena {
    hot: Vec<FlitHot>,
    cold: Vec<FlitCold>,
    /// Head of the free list.
    free: u32,
}

impl FlitArena {
    pub fn new() -> Self {
        FlitArena {
            hot: Vec::new(),
            cold: Vec::new(),
            free: NIL,
        }
    }

    /// Total slots ever allocated. Test hook.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.hot.len()
    }

    /// Length of the free list; equals [`FlitArena::capacity`] exactly
    /// when no flit is live. Test hook.
    #[cfg(test)]
    pub fn free_count(&self) -> usize {
        let mut n = 0;
        let mut h = self.free;
        while h != NIL {
            n += 1;
            h = self.hot[h as usize].next;
        }
        n
    }

    /// Copies `flit` into a slot (recycling a freed one when available)
    /// and returns its handle.
    pub fn alloc(&mut self, flit: &Flit) -> u32 {
        let hot = FlitHot {
            dest: flit.dest,
            src: flit.src,
            route: flit.route,
            hops: flit.hops,
            vc: flit.vc,
            flags: (u8::from(flit.is_head) * HEAD)
                | (u8::from(flit.is_tail) * TAIL)
                | (u8::from(flit.labeled) * LABELED),
            next: NIL,
            aux: 0,
            due: 0,
        };
        let cold = FlitCold {
            packet: flit.packet,
            created: flit.created,
            injected: flit.injected,
            tag: flit.tag,
        };
        if self.free != NIL {
            let h = self.free;
            self.free = self.hot[h as usize].next;
            self.hot[h as usize] = hot;
            self.cold[h as usize] = cold;
            h
        } else {
            let h = self.hot.len() as u32;
            assert!(h < NIL, "flit arena exhausted the u32 handle space");
            self.hot.push(hot);
            self.cold.push(cold);
            h
        }
    }

    /// Returns `h`'s slot to the free list. The handle must be off
    /// every queue.
    pub fn dealloc(&mut self, h: u32) {
        self.hot[h as usize].next = self.free;
        self.free = h;
    }

    /// Reassembles the full flit value (for ejection, tracing, or
    /// crossing a shard boundary by value).
    pub fn get(&self, h: u32) -> Flit {
        let hot = self.hot[h as usize];
        let cold = self.cold[h as usize];
        Flit {
            dest: hot.dest,
            src: hot.src,
            route: hot.route,
            hops: hot.hops,
            vc: hot.vc,
            is_head: hot.flags & HEAD != 0,
            is_tail: hot.flags & TAIL != 0,
            labeled: hot.flags & LABELED != 0,
            packet: cold.packet,
            created: cold.created,
            injected: cold.injected,
            tag: cold.tag,
        }
    }

    pub fn dest(&self, h: u32) -> u32 {
        self.hot[h as usize].dest
    }

    pub fn src(&self, h: u32) -> u32 {
        self.hot[h as usize].src
    }

    pub fn vc(&self, h: u32) -> u8 {
        self.hot[h as usize].vc
    }

    pub fn set_vc(&mut self, h: u32, vc: u8) {
        self.hot[h as usize].vc = vc;
    }

    pub fn bump_hops(&mut self, h: u32) {
        self.hot[h as usize].hops += 1;
    }

    pub fn set_route(&mut self, h: u32, route: RouteInfo) {
        self.hot[h as usize].route = route;
    }

    pub fn is_head(&self, h: u32) -> bool {
        self.hot[h as usize].flags & HEAD != 0
    }

    pub fn is_tail(&self, h: u32) -> bool {
        self.hot[h as usize].flags & TAIL != 0
    }

    pub fn labeled(&self, h: u32) -> bool {
        self.hot[h as usize].flags & LABELED != 0
    }

    pub fn packet(&self, h: u32) -> u64 {
        self.cold[h as usize].packet
    }

    /// Creation cycle of `h` (the stall watchdog's age source).
    pub fn created(&self, h: u32) -> u64 {
        self.cold[h as usize].created
    }

    pub fn set_injected(&mut self, h: u32, t: u64) {
        self.cold[h as usize].injected = t;
    }

    pub fn due(&self, h: u32) -> u64 {
        self.hot[h as usize].due
    }

    pub fn set_due(&mut self, h: u32, due: u64) {
        self.hot[h as usize].due = due;
    }

    pub fn aux(&self, h: u32) -> u32 {
        self.hot[h as usize].aux
    }

    pub fn set_aux(&mut self, h: u32, aux: u32) {
        self.hot[h as usize].aux = aux;
    }
}

/// An intrusive FIFO of arena flits: 12 bytes regardless of occupancy,
/// which is what lets every router size its per-(port, VC) queues by
/// radix alone. Links live in the arena's hot records; the queue only
/// stores its endpoints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitQueue {
    head: u32,
    tail: u32,
    /// Entry count. Read (as a plain load) by [`crate::NetView`] during
    /// injection, while no shard writes any queue.
    pub(crate) len: u32,
}

impl Default for FlitQueue {
    fn default() -> Self {
        FlitQueue {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

impl FlitQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Handle of the oldest entry, if any.
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    pub fn push_back(&mut self, arena: &mut FlitArena, h: u32) {
        arena.hot[h as usize].next = NIL;
        if self.tail == NIL {
            self.head = h;
        } else {
            arena.hot[self.tail as usize].next = h;
        }
        self.tail = h;
        self.len += 1;
    }

    /// Unlinks and returns the oldest entry. The caller owns the
    /// handle: re-queue it or [`FlitArena::dealloc`] it.
    pub fn pop_front(&mut self, arena: &FlitArena) -> Option<u32> {
        if self.head == NIL {
            return None;
        }
        let h = self.head;
        self.head = arena.hot[h as usize].next;
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        Some(h)
    }

    /// Walks the queue front to back without unlinking (diagnostic
    /// scans; the queue must not be mutated while iterating).
    pub fn iter<'q>(&self, arena: &'q FlitArena) -> impl Iterator<Item = u32> + 'q {
        let mut h = self.head;
        std::iter::from_fn(move || {
            if h == NIL {
                return None;
            }
            let out = h;
            h = arena.hot[h as usize].next;
            Some(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(packet: u64) -> Flit {
        Flit {
            dest: 7,
            src: 3,
            route: RouteInfo::minimal(),
            hops: 0,
            vc: 0,
            is_head: true,
            is_tail: false,
            labeled: true,
            tag: 5,
            packet,
            created: 11,
            injected: 0,
        }
    }

    #[test]
    fn round_trips_flits_and_recycles_slots() {
        let mut arena = FlitArena::new();
        let a = arena.alloc(&flit(1));
        let b = arena.alloc(&flit(2));
        assert_eq!(arena.get(a).packet, 1);
        assert_eq!(arena.get(b).packet, 2);
        assert_eq!(arena.get(a), flit(1));
        arena.dealloc(a);
        let c = arena.alloc(&flit(3));
        assert_eq!(c, a, "freed slot is recycled");
        assert_eq!(arena.capacity(), 2, "no growth while the free list feeds");
        arena.bump_hops(c);
        arena.set_vc(c, 2);
        let out = arena.get(c);
        assert_eq!((out.hops, out.vc, out.packet), (1, 2, 3));
    }

    #[test]
    fn queue_is_fifo_across_relinks() {
        let mut arena = FlitArena::new();
        let mut q = FlitQueue::new();
        let hs: Vec<u32> = (0..5).map(|i| arena.alloc(&flit(i))).collect();
        for &h in &hs {
            q.push_back(&mut arena, h);
        }
        assert_eq!(q.len, 5);
        // Move the middle of the queue onto another queue and back.
        let mut q2 = FlitQueue::new();
        assert_eq!(q.pop_front(&arena), Some(hs[0]));
        q2.push_back(&mut arena, hs[0]);
        assert_eq!(q2.front(), Some(hs[0]));
        for expect in 1..5 {
            let h = q.pop_front(&arena).unwrap();
            assert_eq!(arena.get(h).packet, expect);
            q2.push_back(&mut arena, h);
        }
        assert!(q.is_empty());
        assert_eq!(q.pop_front(&arena), None);
        for expect in 0..5 {
            let h = q2.pop_front(&arena).unwrap();
            assert_eq!(arena.get(h).packet, expect);
            arena.dealloc(h);
        }
        assert!(q2.is_empty());
    }
}
