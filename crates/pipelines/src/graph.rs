//! Deterministic DAG pipeline composition over hyperqueues.
//!
//! The `hyperqueue` crate makes one pipeline *edge* deterministic: a
//! consumer observes exactly the serial-elision order, at any worker
//! count. This module composes those edges into arbitrary graphs while
//! preserving that guarantee end to end:
//!
//! * [`Node::map`] — a linear stage (one hyperqueue in, one out);
//! * [`Node::farm_map`] — a stateless stage farmed out per batch: the
//!   stage pops a batch at a time (`io_batch` rounded up to whole
//!   segments) and spawns one child per batch, each holding a push grant
//!   on the output edge. The queue reduces the
//!   children's views in spawn order (DESIGN.md §2), so the output is in
//!   serial order with no sequence numbers, no reorder buffer and no
//!   degree or window to choose — swan runs as many children at once as
//!   it has workers;
//! * [`Node::shard`] / [`Shards::merge_by_key`] — stateful per-key shards
//!   (aggregations) whose sorted shard outputs are k-way merged into one
//!   globally ordered stream;
//! * [`Node::tee`] — multicast to independent downstream chains.
//!
//! Every edge is a hyperqueue and every stage moves data with the batched
//! slice I/O (`pop_batch`/`push_iter`), so graph pipelines inherit the
//! lock-free steady state of the underlying queues.
//!
//! # Determinism contract
//!
//! A graph's observable output is a pure function of the program text and
//! the source values — never of the worker count or schedule — provided
//! the user-supplied stage closures are themselves deterministic (and, for
//! [`Node::shard`], the key function is a pure function of the value).
//! Concretely:
//!
//! * `farm_map(f)` equals `map(f)`, at any `io_batch` and any worker
//!   count;
//! * `shard(..).merge_by_key(w, k)` equals the stable ascending-by-`k`
//!   interleaving of the shard outputs, with ties broken by shard index —
//!   each shard must emit its own output ascending by `k` (aggregations
//!   that flush a sorted map do this naturally);
//! * `tee` delivers every branch the full stream in serial order.
//!
//! The property suite in `tests/pipeline_shapes.rs` pins this contract by
//! running randomly generated DAG shapes on 1/2/8 workers and comparing
//! against the serial elision.
//!
//! # Example: a farmed stage, output in serial order
//!
//! ```
//! use pipelines::graph::GraphBuilder;
//! use swan::Runtime;
//!
//! let rt = Runtime::with_workers(4);
//! let mut out = Vec::new();
//! let out_ref = &mut out;
//! rt.scope(move |s| {
//!     GraphBuilder::on(s)
//!         .segment_capacity(16)
//!         .io_batch(16)           // one child per 16 values
//!         .source_iter(0u64..1000)
//!         .farm_map(|x| x * x)    // children run on every worker
//!         .collect_into(out_ref); // in serial order, from the views
//! });
//! assert_eq!(out, (0u64..1000).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use hyperqueue::{Hyperqueue, PopDep, PushToken};
use swan::{DepList, Scope};

use crate::service::PoolCursor;

pub use crate::service::{
    Admission, CompiledGraph, GraphSpec, JobError, JobHandle, ServiceConfig, Submission,
};

/// Default segment capacity for graph edges — small enough that short
/// property-test streams cross segment boundaries, large enough to batch.
pub const DEFAULT_EDGE_CAPACITY: usize = 64;

/// Default number of values a stage moves per `pop_batch`/`push_iter`
/// round.
pub const DEFAULT_IO_BATCH: usize = 32;

/// Entry point: builds graph nodes inside an open [`Scope`].
///
/// The builder is a task-local handle (like the queue owners it creates):
/// construct it inside `rt.scope(..)`, chain combinators, and let the
/// scope's implicit sync run the pipeline to completion.
#[derive(Clone, Copy)]
pub struct GraphBuilder<'g, 'scope> {
    scope: &'g Scope<'scope>,
    seg_cap: usize,
    io_batch: usize,
    /// Service-layer hook: when set, edges draw their segments from the
    /// per-edge [`hyperqueue::SegmentPool`]s of a persistent
    /// [`CompiledGraph`] instead of allocating (see [`GraphBuilder::pooled`]).
    pools: Option<&'g PoolCursor<'g>>,
}

impl<'g, 'scope> GraphBuilder<'g, 'scope> {
    /// Creates a builder with default edge capacity and I/O batch size.
    pub fn on(scope: &'g Scope<'scope>) -> Self {
        GraphBuilder {
            scope,
            seg_cap: DEFAULT_EDGE_CAPACITY,
            io_batch: DEFAULT_IO_BATCH,
            pools: None,
        }
    }

    /// Sets the segment capacity of every edge created from this builder
    /// (the queues and pools round it, see
    /// [`hyperqueue::segment_capacity_for`]).
    pub fn segment_capacity(mut self, cap: usize) -> Self {
        self.seg_cap = cap;
        self
    }

    /// Sets the per-round batch size stages use on every edge.
    pub fn io_batch(mut self, n: usize) -> Self {
        self.io_batch = n.max(1);
        self
    }

    /// Draws every edge's segments from the per-edge pools behind
    /// `cursor` (a persistent [`CompiledGraph`]'s storage). Edges are
    /// matched to pools by creation order, so the same graph construction
    /// sequence must run on every job — which is exactly what a compiled
    /// graph's plan guarantees.
    pub fn pooled(mut self, cursor: &'g PoolCursor<'g>) -> Self {
        self.pools = Some(cursor);
        self
    }

    /// Spawns one stage task. Every combinator below routes its stages
    /// through here: the one place a stage is lowered to a swan task. (A
    /// farm's per-batch children are spawned by its stage task.)
    fn spawn_stage<D, F>(&self, deps: D, body: F)
    where
        D: DepList,
        D::Guards: 'scope,
        F: FnOnce(&Scope<'scope>, D::Guards) + Send + 'scope,
    {
        self.scope.spawn(deps, body)
    }

    fn edge<T: Send + 'static>(&self) -> Hyperqueue<T> {
        match self.pools {
            Some(cursor) => Hyperqueue::with_pool(self.scope, &cursor.next_pool::<T>(self.seg_cap)),
            None => Hyperqueue::with_segment_capacity(self.scope, self.seg_cap),
        }
    }

    /// A source node fed by an iterator (pushed through write slices in
    /// one producer task).
    pub fn source_iter<T, I>(self, items: I) -> Node<'g, 'scope, T>
    where
        T: Send + 'static,
        I: IntoIterator<Item = T> + Send + 'scope,
    {
        self.source(move |push| {
            push.push_iter(items);
        })
    }

    /// A source node fed by a producer closure — the general form: the
    /// closure owns a [`PushToken`] and may push however it likes
    /// (including delegating to recursive child producers, Figure 2/3
    /// style, via `PushToken::pushdep`).
    pub fn source<T, F>(self, producer: F) -> Node<'g, 'scope, T>
    where
        T: Send + 'static,
        F: FnOnce(&mut PushToken<T>) + Send + 'scope,
    {
        let q = self.edge::<T>();
        self.spawn_stage((q.pushdep(),), move |_, (mut push,)| {
            producer(&mut push);
        });
        Node { gb: self, q }
    }

    /// Adopts an already-fed queue as a node (escape hatch for composing
    /// with hand-written hyperqueue code).
    pub fn adopt<T: Send + 'static>(self, q: Hyperqueue<T>) -> Node<'g, 'scope, T> {
        Node { gb: self, q }
    }
}

/// One edge of the graph: a stream of `T` in a deterministic serial order.
///
/// Like the [`Hyperqueue`] it wraps, a node is task-local (`!Send`):
/// combinators consume it and spawn the stage tasks that do the work.
pub struct Node<'g, 'scope, T: Send + 'static> {
    gb: GraphBuilder<'g, 'scope>,
    q: Hyperqueue<T>,
}

impl<'g, 'scope, T: Send + 'static> Node<'g, 'scope, T> {
    /// A linear transform stage: one task maps every value, preserving
    /// order.
    pub fn map<U, F>(self, mut f: F) -> Node<'g, 'scope, U>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'scope,
    {
        self.filter_map(move |x| Some(f(x)))
    }

    /// A linear filter/transform stage: keeps the `Some` results, in
    /// order.
    pub fn filter_map<U, F>(self, mut f: F) -> Node<'g, 'scope, U>
    where
        U: Send + 'static,
        F: FnMut(T) -> Option<U> + Send + 'scope,
    {
        let gb = self.gb;
        let out = gb.edge::<U>();
        let batch = gb.io_batch;
        gb.spawn_stage(
            (self.q.popdep(), out.pushdep()),
            move |_, (mut c, mut p)| {
                let mut vals = Vec::with_capacity(batch);
                while c.pop_batch_into(batch, &mut vals) > 0 {
                    p.push_iter(vals.drain(..).filter_map(&mut f));
                }
            },
        );
        Node { gb, q: out }
    }

    /// A 1:N transform stage: every value expands to zero or more outputs
    /// (in order), the streaming analogue of `Iterator::flat_map`.
    pub fn flat_map<U, V, F>(self, mut f: F) -> Node<'g, 'scope, U>
    where
        U: Send + 'static,
        V: IntoIterator<Item = U>,
        F: FnMut(T) -> V + Send + 'scope,
    {
        let gb = self.gb;
        let out = gb.edge::<U>();
        let batch = gb.io_batch;
        gb.spawn_stage(
            (self.q.popdep(), out.pushdep()),
            move |_, (mut c, mut p)| {
                let mut vals = Vec::with_capacity(batch);
                while c.pop_batch_into(batch, &mut vals) > 0 {
                    p.push_iter(vals.drain(..).flat_map(&mut f));
                }
            },
        );
        Node { gb, q: out }
    }

    /// A stateless 1:1 stage farmed out per batch. The stage task pops
    /// `io_batch` values at a time and moves each batch into one child
    /// spawned with a push grant on the output edge, so batches run on as
    /// many workers as are free. Order needs no tags: the hyperqueue
    /// reduces the children's views in spawn order, and the output equals
    /// [`Node::map`]'s at any batch size and worker count.
    ///
    /// Every child starts its own segment on the output edge, so a batch
    /// is `io_batch` rounded up to a whole number of segments: each child
    /// fills the segments it starts, and the edge needs no more segments
    /// than a single producer would. Every batch but the stream's last is
    /// full, so the cut depends on the input alone, never on timing.
    pub fn farm_map<U, F>(self, f: F) -> Node<'g, 'scope, U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'scope,
    {
        let gb = self.gb;
        let out = gb.edge::<U>();
        let cap = hyperqueue::segment_capacity_for(gb.seg_cap);
        let batch = gb.io_batch.div_ceil(cap) * cap;
        let f = Arc::new(f);
        gb.spawn_stage(
            (self.q.popdep(), out.pushdep()),
            move |s, (mut c, mut p)| loop {
                let mut vals = Vec::with_capacity(batch);
                while vals.len() < batch && c.pop_batch_into(batch - vals.len(), &mut vals) > 0 {}
                if vals.is_empty() {
                    break;
                }
                let f = Arc::clone(&f);
                s.spawn((p.pushdep(),), move |_, (mut p,)| {
                    p.push_iter(vals.into_iter().map(&*f));
                });
            },
        );
        Node { gb, q: out }
    }

    /// Keyed fan-out over `degree` stateful shards — the shape of sharded
    /// aggregation. A router task sends value `v` to shard
    /// `key(v) % degree`, so equal keys meet on one shard in their serial
    /// order (`key` must be a pure function of the value). Shard `i`
    /// builds its state with `init(i)`, folds every value through `step`
    /// (emitting zero or more outputs per input into the scratch vector)
    /// and `finish`es by emitting the rest. Rejoin the shards with
    /// [`Shards::merge_by_key`], whose contract requires each shard's
    /// emissions to ascend by the merge key.
    pub fn shard<S, U, K, I, FS, FF>(
        self,
        degree: usize,
        key: K,
        init: I,
        step: FS,
        finish: FF,
    ) -> Shards<'g, 'scope, U>
    where
        U: Send + 'static,
        K: Fn(&T) -> u64 + Send + 'scope,
        I: Fn(usize) -> S + Send + Sync + 'scope,
        FS: Fn(&mut S, T, &mut Vec<U>) + Send + Sync + 'scope,
        FF: Fn(S, &mut Vec<U>) + Send + Sync + 'scope,
    {
        let gb = self.gb;
        let degree = degree.max(1);
        let batch = gb.io_batch;
        let routed: Vec<Hyperqueue<T>> = (0..degree).map(|_| gb.edge()).collect();
        let pushes: Vec<_> = routed.iter().map(|q| q.pushdep()).collect();
        gb.spawn_stage(
            (self.q.popdep(), pushes),
            move |_, (mut input, mut pushes)| {
                let mut vals = Vec::with_capacity(batch);
                let mut bufs: Vec<Vec<T>> = (0..degree).map(|_| Vec::new()).collect();
                while input.pop_batch_into(batch, &mut vals) > 0 {
                    for value in vals.drain(..) {
                        bufs[(key(&value) % degree as u64) as usize].push(value);
                    }
                    for (buf, push) in bufs.iter_mut().zip(pushes.iter_mut()) {
                        if !buf.is_empty() {
                            push.push_iter(buf.drain(..));
                        }
                    }
                }
            },
        );
        let stage = Arc::new((init, step, finish));
        let outs: Vec<Hyperqueue<U>> = (0..degree).map(|_| gb.edge()).collect();
        for (idx, (q, out)) in routed.iter().zip(&outs).enumerate() {
            let stage = Arc::clone(&stage);
            gb.spawn_stage((q.popdep(), out.pushdep()), move |_, (mut c, mut p)| {
                let (init, step, finish) = &*stage;
                let mut state = init(idx);
                let mut vals = Vec::with_capacity(batch);
                let mut emit = Vec::new();
                while c.pop_batch_into(batch, &mut vals) > 0 {
                    for v in vals.drain(..) {
                        step(&mut state, v, &mut emit);
                    }
                    if !emit.is_empty() {
                        p.push_iter(emit.drain(..));
                    }
                }
                finish(state, &mut emit);
                p.push_iter(emit);
            });
        }
        Shards {
            gb,
            edges: outs.into_iter().map(|q| Node { gb, q }).collect(),
        }
    }

    /// Multicast to two independent downstream chains (both receive the
    /// full stream in serial order).
    pub fn tee(self) -> (Node<'g, 'scope, T>, Node<'g, 'scope, T>)
    where
        T: Clone,
    {
        let mut nodes = self.tee_n(2);
        let b = nodes.pop().expect("tee_n(2)");
        let a = nodes.pop().expect("tee_n(2)");
        (a, b)
    }

    /// Multicast to `n` independent downstream chains.
    pub fn tee_n(self, n: usize) -> Vec<Node<'g, 'scope, T>>
    where
        T: Clone,
    {
        let gb = self.gb;
        let n = n.max(1);
        let batch = gb.io_batch;
        let outs: Vec<Hyperqueue<T>> = (0..n).map(|_| gb.edge()).collect();
        let pushes: Vec<_> = outs.iter().map(|q| q.pushdep()).collect();
        gb.spawn_stage(
            (self.q.popdep(), pushes),
            move |_, (mut input, mut pushes)| {
                let mut vals = Vec::with_capacity(batch);
                while input.pop_batch_into(batch, &mut vals) > 0 {
                    let (last, rest) = pushes.split_last_mut().expect("n >= 1");
                    for push in rest.iter_mut() {
                        push.push_iter(vals.iter().cloned());
                    }
                    last.push_iter(vals.drain(..));
                }
            },
        );
        outs.into_iter().map(|q| Node { gb, q }).collect()
    }

    /// Terminal stage: a sink task appends every value, in order, to
    /// `out`. The vector is complete when the enclosing scope returns.
    pub fn collect_into(self, out: &'scope mut Vec<T>) {
        let batch = self.gb.io_batch;
        self.gb.spawn_stage((self.q.popdep(),), move |_, (mut c,)| {
            // Appends straight into the destination: no intermediate copy.
            while c.pop_batch_into(batch, out) > 0 {}
        });
    }

    /// Terminal stage: a sink task gathers every value, in order, and
    /// hands the finished vector to `done` — [`Node::collect_into`] for
    /// callers with no frame to lend a `&mut Vec` from (a detached root).
    pub fn collect_with<F>(self, done: F)
    where
        F: FnOnce(Vec<T>) + Send + 'scope,
    {
        let batch = self.gb.io_batch;
        self.gb.spawn_stage((self.q.popdep(),), move |_, (mut c,)| {
            let mut out = Vec::new();
            while c.pop_batch_into(batch, &mut out) > 0 {}
            done(out);
        });
    }

    /// Terminal stage: a sink task invokes `f` on every value in serial
    /// order.
    pub fn for_each<F>(self, mut f: F)
    where
        F: FnMut(T) + Send + 'scope,
    {
        let batch = self.gb.io_batch;
        self.gb.spawn_stage((self.q.popdep(),), move |_, (mut c,)| {
            let mut vals = Vec::with_capacity(batch);
            while c.pop_batch_into(batch, &mut vals) > 0 {
                vals.drain(..).for_each(&mut f);
            }
        });
    }

    /// Terminal stage on the *current* task: drains the node inline
    /// (helping the runtime while blocked) and returns the values. Useful
    /// when the caller wants the result without threading a `&mut Vec`
    /// borrow into the scope.
    pub fn drain_collect(self) -> Vec<T> {
        let mut out = Vec::new();
        while self.q.pop_batch_into(self.gb.io_batch, &mut out) > 0 {}
        out
    }

    /// Unwraps the underlying queue (escape hatch: hand-written consumers,
    /// `popdep` delegation, stats).
    pub fn into_queue(self) -> Hyperqueue<T> {
        self.q
    }

    /// Pop-privilege grant on this node's edge, for hand-written consumer
    /// spawns.
    pub fn popdep(&self) -> PopDep<T> {
        self.q.popdep()
    }
}

/// Independent per-shard streams produced by [`Node::shard`].
pub struct Shards<'g, 'scope, T: Send + 'static> {
    gb: GraphBuilder<'g, 'scope>,
    edges: Vec<Node<'g, 'scope, T>>,
}

impl<'g, 'scope, T: Send + 'static> Shards<'g, 'scope, T> {
    /// Deterministic ordered fan-in over sorted shard streams: a k-way
    /// merge ascending by `key`, ties broken by shard index. Each shard
    /// must emit its own stream ascending by `key` (up to equal keys);
    /// the output is then the unique stable sorted interleaving —
    /// independent of worker count and schedule. `window` is the per-edge
    /// read-ahead (values buffered per shard between refills).
    pub fn merge_by_key<K, F>(self, window: usize, key: F) -> Node<'g, 'scope, T>
    where
        K: Ord,
        F: Fn(&T) -> K + Send + 'scope,
    {
        let gb = self.gb;
        let window = window.max(1);
        let out = gb.edge::<T>();
        let pops: Vec<_> = self.edges.into_iter().map(|n| n.q.popdep()).collect();
        gb.spawn_stage((pops, out.pushdep()), move |_, (mut pops, mut push)| {
            let n = pops.len();
            // Keys are computed once per value at refill time and ride
            // along in the read-ahead buffers, so the selection scan
            // below costs comparisons only.
            let mut bufs: Vec<VecDeque<(K, T)>> = (0..n).map(|_| VecDeque::new()).collect();
            let mut done = vec![false; n];
            let mut vals: Vec<T> = Vec::with_capacity(window);
            let mut staged: Vec<T> = Vec::new();
            loop {
                // Refill every exhausted live edge (each refill blocks
                // until that edge shows data or closes).
                for (i, pop) in pops.iter_mut().enumerate() {
                    if done[i] || !bufs[i].is_empty() {
                        continue;
                    }
                    if pop.pop_batch_into(window, &mut vals) == 0 {
                        done[i] = true;
                    } else {
                        bufs[i].extend(vals.drain(..).map(|v| (key(&v), v)));
                    }
                }
                if bufs.iter().all(|b| b.is_empty()) {
                    break; // every edge done and drained
                }
                // Emit while the global minimum is certain: every live
                // edge has a buffered head (its own future minimum).
                while (0..n).all(|i| done[i] || !bufs[i].is_empty()) {
                    let mut best: Option<usize> = None;
                    for (i, buf) in bufs.iter().enumerate() {
                        let Some((k, _)) = buf.front() else { continue };
                        best = match best {
                            Some(j) if bufs[j][0].0 <= *k => Some(j),
                            _ => Some(i),
                        };
                    }
                    let Some(i) = best else { break };
                    staged.push(bufs[i].pop_front().expect("front checked").1);
                    if staged.len() >= window {
                        push.push_iter(staged.drain(..));
                    }
                }
                // Publish before blocking on a refill again.
                if !staged.is_empty() {
                    push.push_iter(staged.drain(..));
                }
            }
            push.push_iter(staged);
        });
        Node { gb, q: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan::Runtime;

    /// 497 = 62 · 8 + 1 values: at `io_batch` ≤ 8 the farm cuts 8-value
    /// batches and the last child gets one value.
    fn squares_via_farm(io_batch: usize, workers: usize) -> Vec<u64> {
        let rt = Runtime::with_workers(workers);
        let mut out = Vec::new();
        let out_ref = &mut out;
        rt.scope(move |s| {
            GraphBuilder::on(s)
                .segment_capacity(8)
                .io_batch(io_batch)
                .source_iter(0u64..497)
                .farm_map(|x| x * x)
                .collect_into(out_ref);
        });
        out
    }

    #[test]
    fn farm_map_equals_serial_elision() {
        let expect: Vec<u64> = (0..497).map(|x| x * x).collect();
        for io_batch in [1, 3, 8, 32] {
            for workers in [1, 2, 8] {
                assert_eq!(
                    squares_via_farm(io_batch, workers),
                    expect,
                    "io_batch {io_batch} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn tee_feeds_both_branches_fully() {
        let rt = Runtime::with_workers(4);
        let mut evens = Vec::new();
        let mut sum = 0u64;
        let (e_ref, s_ref) = (&mut evens, &mut sum);
        rt.scope(move |s| {
            let (a, b) = GraphBuilder::on(s).source_iter(0u64..200).tee();
            a.filter_map(|x| (x % 2 == 0).then_some(x))
                .collect_into(e_ref);
            b.for_each(move |x| *s_ref += x);
        });
        assert_eq!(evens, (0..200).filter(|x| x % 2 == 0).collect::<Vec<u64>>());
        assert_eq!(sum, 199 * 200 / 2);
    }

    #[test]
    fn shard_and_merge_by_key_yield_sorted_union() {
        // Sharded per-key counting: each shard counts its own keys and
        // flushes (key, count) ascending; the merge interleaves sorted.
        for workers in [1, 2, 8] {
            let rt2 = Runtime::with_workers(workers);
            let mut got: Vec<(u64, u64)> = Vec::new();
            let got_ref = &mut got;
            rt2.scope(move |s| {
                GraphBuilder::on(s)
                    .segment_capacity(4)
                    .source_iter((0u64..300).map(|i| i % 13))
                    .shard(
                        3,
                        |v: &u64| *v,
                        |_idx| std::collections::BTreeMap::<u64, u64>::new(),
                        |counts, v, _emit| {
                            *counts.entry(v).or_insert(0) += 1;
                        },
                        |counts, emit| emit.extend(counts),
                    )
                    .merge_by_key(8, |&(k, _)| k)
                    .collect_into(got_ref);
            });
            let mut expect = std::collections::BTreeMap::<u64, u64>::new();
            for i in 0..300u64 {
                *expect.entry(i % 13).or_insert(0) += 1;
            }
            assert_eq!(
                got,
                expect.into_iter().collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn drain_collect_runs_on_the_owner_task() {
        let rt = Runtime::with_workers(2);
        let got = rt.scope(|s| {
            GraphBuilder::on(s)
                .source_iter(0u32..100)
                .map(|x| x + 1)
                .drain_collect()
        });
        assert_eq!(got, (1..=100).collect::<Vec<u32>>());
    }
}
