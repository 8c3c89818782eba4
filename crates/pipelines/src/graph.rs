//! Deterministic DAG pipeline composition over hyperqueues.
//!
//! The `hyperqueue` crate makes one pipeline *edge* deterministic: a
//! consumer observes exactly the serial-elision order, at any worker
//! count. This module composes those edges into arbitrary graphs while
//! preserving that guarantee end to end:
//!
//! * [`Node::map`] — a linear stage (one hyperqueue in, one out);
//! * [`Node::split`] — deterministic fan-out: a distributor assigns each
//!   value its sequence number in the pre-split serial order and routes
//!   it round-robin or by key to one of N replica edges (hand-built
//!   tagged producers get the same numbering from
//!   [`hyperqueue::AutoTag`] via [`GraphBuilder::source_tagged`]);
//! * [`Fanout::merge`] — deterministic fan-in: a sequence-tagged reorder
//!   window (a generalized [`crate::reorder::ReorderBuffer`]) reassembles
//!   the pre-split serial order exactly;
//! * [`Fanout::shard`] / [`Shards::merge_by_key`] — stateful per-shard
//!   stages (aggregations) whose sorted shard outputs are k-way merged
//!   into one globally ordered stream;
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
//! [`Partition::keyed`], the key function is a pure function of the
//! value). Concretely:
//!
//! * `split(..).map(f).merge(w)` equals `map(f)` applied on the unsplit
//!   stream, for every degree and every window `w ≥ 1`;
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
//! # Example: fan-out across 4 replica stages, deterministic fan-in
//!
//! ```
//! use pipelines::graph::{GraphBuilder, Partition};
//! use swan::Runtime;
//!
//! let rt = Runtime::with_workers(4);
//! let mut out = Vec::new();
//! let out_ref = &mut out;
//! rt.scope(move |s| {
//!     GraphBuilder::on(s)
//!         .source_iter(0u64..1000)
//!         .split(4, Partition::RoundRobin) // fan-out: 4 replica edges
//!         .map(|x| x * x)                  // runs on all 4 replicas
//!         .merge(32)                       // fan-in: serial order restored
//!         .collect_into(out_ref);
//! });
//! assert_eq!(out, (0u64..1000).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use hyperqueue::{AutoTag, Hyperqueue, PopDep, PushToken, Tagged};
use swan::{DepList, Scope};

use crate::reorder::ReorderBuffer;
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

/// How a fan-out distributor routes values to replica edges.
///
/// Both policies are deterministic: the route of a value depends only on
/// its serial position (round-robin) or its content (keyed) — never on
/// timing.
pub enum Partition<'p, T> {
    /// Value with serial position `seq` goes to replica `seq % degree`.
    /// Best for uniform, stateless replica stages.
    RoundRobin,
    /// Value `v` goes to replica `key(v) % degree`: all values with equal
    /// keys visit the same replica, in their serial order — what stateful
    /// per-key stages (sharded aggregation) need. `key` must be a pure
    /// function of the value.
    Keyed(Box<dyn Fn(&T) -> u64 + Send + 'p>),
}

impl<'p, T> Partition<'p, T> {
    /// Keyed routing by `key` (see [`Partition::Keyed`]).
    pub fn keyed(key: impl Fn(&T) -> u64 + Send + 'p) -> Self {
        Partition::Keyed(Box::new(key))
    }

    fn route(&self, seq: u64, value: &T, degree: u64) -> usize {
        match self {
            Partition::RoundRobin => (seq % degree) as usize,
            Partition::Keyed(key) => (key(value) % degree) as usize,
        }
    }
}

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

    /// Spawns one stage task. Every combinator below routes its spawns
    /// through here (or [`Self::spawn_stage_replicas`]): the one place a
    /// stage is lowered to a swan task.
    fn spawn_stage<D, F>(&self, deps: D, body: F)
    where
        D: DepList,
        D::Guards: 'scope,
        F: FnOnce(&Scope<'scope>, D::Guards) + Send + 'scope,
    {
        self.scope.spawn(deps, body)
    }

    /// [`swan::Scope::spawn_replicas`] routed through
    /// [`Self::spawn_stage`]: one stage per dependency bundle,
    /// sharing a single body closure, spawned in `deps` order.
    fn spawn_stage_replicas<D, F>(&self, deps: impl IntoIterator<Item = D>, body: F)
    where
        D: DepList,
        D::Guards: 'scope,
        F: Fn(&Scope<'scope>, usize, D::Guards) + Send + Sync + 'scope,
    {
        let body = Arc::new(body);
        for (idx, d) in deps.into_iter().enumerate() {
            let b = Arc::clone(&body);
            self.spawn_stage(d, move |s, guards| b(s, idx, guards));
        }
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

    /// A sequence-tagged source: the producer pushes plain values through
    /// an [`AutoTag`] adapter, which assigns consecutive serial positions
    /// starting at `start`. Several tagged sources covering disjoint,
    /// gapless sequence ranges can be rejoined in serial order with
    /// [`GraphBuilder::merge_tagged`] — a hand-built fan-out, without
    /// going through [`Node::split`].
    pub fn source_tagged<T, F>(self, start: u64, producer: F) -> Node<'g, 'scope, Tagged<T>>
    where
        T: Send + 'static,
        F: FnOnce(&mut AutoTag<T, PushToken<Tagged<T>>>) + Send + 'scope,
    {
        let q = self.edge::<Tagged<T>>();
        self.spawn_stage((q.pushdep(),), move |_, (push,)| {
            let mut tagger = AutoTag::with_start(push, start);
            producer(&mut tagger);
        });
        Node { gb: self, q }
    }

    /// Deterministic fan-in over hand-built tagged edges (see
    /// [`GraphBuilder::source_tagged`]; [`Fanout::merge`] is this
    /// operation applied to a [`Node::split`]'s edges). The union of the
    /// edges' sequence numbers must be gapless from 0.
    pub fn merge_tagged<T: Send + 'static>(
        self,
        edges: Vec<Node<'g, 'scope, Tagged<T>>>,
        window: usize,
    ) -> Node<'g, 'scope, T> {
        Fanout { gb: self, edges }.merge(window)
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

    /// Deterministic fan-out: a distributor task tags every value with its
    /// serial position and routes it to one of `degree` replica edges
    /// according to `partition`. Follow with [`Fanout::map`] /
    /// [`Fanout::shard`] to put work on the replicas, and
    /// [`Fanout::merge`] / [`Shards::merge_by_key`] to rejoin.
    pub fn split(self, degree: usize, partition: Partition<'scope, T>) -> Fanout<'g, 'scope, T> {
        let gb = self.gb;
        let degree = degree.max(1);
        let batch = gb.io_batch;
        let outs: Vec<Hyperqueue<Tagged<T>>> = (0..degree).map(|_| gb.edge()).collect();
        let pushes: Vec<_> = outs.iter().map(|q| q.pushdep()).collect();
        gb.spawn_stage(
            (self.q.popdep(), pushes),
            move |_, (mut input, mut pushes)| {
                let mut seq = 0u64;
                let mut vals = Vec::with_capacity(batch);
                let mut bufs: Vec<Vec<Tagged<T>>> = (0..degree).map(|_| Vec::new()).collect();
                while input.pop_batch_into(batch, &mut vals) > 0 {
                    for value in vals.drain(..) {
                        let shard = partition.route(seq, &value, degree as u64);
                        bufs[shard].push(Tagged::new(seq, value));
                        seq += 1;
                    }
                    for (buf, push) in bufs.iter_mut().zip(pushes.iter_mut()) {
                        if !buf.is_empty() {
                            push.push_iter(buf.drain(..));
                        }
                    }
                }
            },
        );
        Fanout {
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

/// The replica edges of a fan-out: `degree` sequence-tagged streams that
/// together carry the pre-split stream exactly once.
pub struct Fanout<'g, 'scope, T: Send + 'static> {
    gb: GraphBuilder<'g, 'scope>,
    edges: Vec<Node<'g, 'scope, Tagged<T>>>,
}

impl<'g, 'scope, T: Send + 'static> Fanout<'g, 'scope, T> {
    /// Number of replica edges.
    pub fn degree(&self) -> usize {
        self.edges.len()
    }

    /// A 1:1 transform applied on every replica concurrently. The closure
    /// is shared (`Fn`) across replicas; sequence tags ride along
    /// untouched so a later [`Fanout::merge`] can restore serial order.
    pub fn map<U, F>(self, f: F) -> Fanout<'g, 'scope, U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'scope,
    {
        let gb = self.gb;
        let batch = gb.io_batch;
        let outs: Vec<Hyperqueue<Tagged<U>>> = (0..self.edges.len()).map(|_| gb.edge()).collect();
        let deps: Vec<_> = self
            .edges
            .into_iter()
            .zip(outs.iter())
            .map(|(n, out)| (n.q.popdep(), out.pushdep()))
            .collect();
        gb.spawn_stage_replicas(deps, move |_, _idx, (mut c, mut p)| {
            let mut vals = Vec::with_capacity(batch);
            while c.pop_batch_into(batch, &mut vals) > 0 {
                p.push_iter(vals.drain(..).map(|t| t.map(&f)));
            }
        });
        Fanout {
            gb,
            edges: outs.into_iter().map(|q| Node { gb, q }).collect(),
        }
    }

    /// A stateful per-replica stage — the shape of sharded aggregation.
    /// Each replica builds its state with `init(replica_index)`, folds
    /// every tagged value through `step` (emitting zero or more outputs
    /// per input into the scratch vector), and `finish`es by emitting its
    /// remaining outputs. The result is `degree` independent *untagged*
    /// streams; rejoin them with [`Shards::merge_by_key`], whose contract
    /// requires each replica's emissions to ascend by the merge key.
    pub fn shard<S, U, I, FS, FF>(self, init: I, step: FS, finish: FF) -> Shards<'g, 'scope, U>
    where
        U: Send + 'static,
        I: Fn(usize) -> S + Send + Sync + 'scope,
        FS: Fn(&mut S, Tagged<T>, &mut Vec<U>) + Send + Sync + 'scope,
        FF: Fn(S, &mut Vec<U>) + Send + Sync + 'scope,
    {
        let gb = self.gb;
        let batch = gb.io_batch;
        let outs: Vec<Hyperqueue<U>> = (0..self.edges.len()).map(|_| gb.edge()).collect();
        let deps: Vec<_> = self
            .edges
            .into_iter()
            .zip(outs.iter())
            .map(|(n, out)| (n.q.popdep(), out.pushdep()))
            .collect();
        gb.spawn_stage_replicas(deps, move |_, idx, (mut c, mut p)| {
            let mut state = init(idx);
            let mut vals = Vec::with_capacity(batch);
            let mut emit = Vec::new();
            while c.pop_batch_into(batch, &mut vals) > 0 {
                for t in vals.drain(..) {
                    step(&mut state, t, &mut emit);
                }
                if !emit.is_empty() {
                    p.push_iter(emit.drain(..));
                }
            }
            finish(state, &mut emit);
            p.push_iter(emit);
        });
        Shards {
            gb,
            edges: outs.into_iter().map(|q| Node { gb, q }).collect(),
        }
    }

    /// Deterministic fan-in: reassembles the pre-split serial order from
    /// the sequence tags through a reorder window. `window` bounds how
    /// many values the merge pops from one replica edge per round.
    ///
    /// The merged stream is byte-identical to the unsplit stream for any
    /// degree, window and worker count — the fan-out/fan-in pair is
    /// observationally a no-op.
    ///
    /// # Memory
    ///
    /// Under **round-robin** routing, consecutive sequence numbers
    /// interleave across edges, so each sweep's contiguous prefix drains
    /// and parked values stay within about `degree × window`. Under
    /// **keyed** routing the parked count instead follows the routing
    /// skew: if the key correlates with stream position (e.g. the first
    /// half of the stream keys to shard 0), the buffer must park up to
    /// the skewed run's length before the gap fills — the same
    /// unboundedness the hyperqueue itself accepts on a producer/consumer
    /// rate mismatch. Keyed fan-outs that need bounded fan-in memory
    /// should aggregate per shard and rejoin with
    /// [`Shards::merge_by_key`], whose buffering is strictly
    /// `degree × window`.
    pub fn merge(self, window: usize) -> Node<'g, 'scope, T> {
        let gb = self.gb;
        let window = window.max(1);
        let out = gb.edge::<T>();
        let pops: Vec<_> = self.edges.into_iter().map(|n| n.q.popdep()).collect();
        gb.spawn_stage((pops, out.pushdep()), move |_, (mut pops, mut push)| {
            let n = pops.len();
            let mut done = vec![false; n];
            let mut live = n;
            let mut buf = ReorderBuffer::with_start(0);
            let mut vals: Vec<Tagged<T>> = Vec::with_capacity(window);
            let mut ready: Vec<T> = Vec::new();
            while live > 0 {
                for (i, pop) in pops.iter_mut().enumerate() {
                    if done[i] {
                        continue;
                    }
                    // Blocks until this edge shows data or closes —
                    // safe: the graph is acyclic, so the edge's
                    // producer never waits on this merge.
                    if pop.pop_batch_into(window, &mut vals) == 0 {
                        done[i] = true;
                        live -= 1;
                        continue;
                    }
                    for t in vals.drain(..) {
                        buf.insert(t.seq, t.value);
                    }
                    if buf.drain_ready(&mut ready) > 0 {
                        push.push_iter(ready.drain(..));
                    }
                }
            }
            assert_eq!(
                buf.parked(),
                0,
                "fan-out merge saw a sequence gap: a split edge dropped values"
            );
        });
        Node { gb, q: out }
    }

    /// Unwraps the tagged replica edges (escape hatch for custom fan-in
    /// topologies).
    pub fn into_edges(self) -> Vec<Node<'g, 'scope, Tagged<T>>> {
        self.edges
    }
}

/// Independent untagged per-shard streams produced by [`Fanout::shard`].
pub struct Shards<'g, 'scope, T: Send + 'static> {
    gb: GraphBuilder<'g, 'scope>,
    edges: Vec<Node<'g, 'scope, T>>,
}

impl<'g, 'scope, T: Send + 'static> Shards<'g, 'scope, T> {
    /// Number of shard streams.
    pub fn degree(&self) -> usize {
        self.edges.len()
    }

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

    /// Unwraps the shard streams (escape hatch).
    pub fn into_edges(self) -> Vec<Node<'g, 'scope, T>> {
        self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan::Runtime;

    fn squares_via(degree: usize, window: usize, workers: usize, keyed: bool) -> Vec<u64> {
        let rt = Runtime::with_workers(workers);
        let mut out = Vec::new();
        let out_ref = &mut out;
        rt.scope(move |s| {
            let part = if keyed {
                Partition::keyed(|v: &u64| v / 7)
            } else {
                Partition::RoundRobin
            };
            GraphBuilder::on(s)
                .segment_capacity(8)
                .source_iter(0u64..500)
                .split(degree, part)
                .map(|x| x * x)
                .merge(window)
                .collect_into(out_ref);
        });
        out
    }

    #[test]
    fn split_map_merge_equals_serial_elision() {
        let expect: Vec<u64> = (0..500).map(|x| x * x).collect();
        for degree in [1, 2, 3, 4] {
            for workers in [1, 2, 8] {
                assert_eq!(
                    squares_via(degree, 16, workers, false),
                    expect,
                    "degree {degree} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn keyed_split_preserves_serial_order_after_merge() {
        let expect: Vec<u64> = (0..500).map(|x| x * x).collect();
        for workers in [1, 2, 8] {
            assert_eq!(squares_via(3, 4, workers, true), expect);
        }
    }

    #[test]
    fn tiny_window_still_correct() {
        let expect: Vec<u64> = (0..500).map(|x| x * x).collect();
        assert_eq!(squares_via(4, 1, 8, false), expect);
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
                    .split(3, Partition::keyed(|v: &u64| *v))
                    .shard(
                        |_idx| std::collections::BTreeMap::<u64, u64>::new(),
                        |counts, t, _emit| {
                            *counts.entry(t.value).or_insert(0) += 1;
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
    fn hand_built_tagged_sources_merge_in_serial_order() {
        // Two AutoTag producers covering disjoint sequence ranges: the
        // merge interleaves them back into one gapless serial stream.
        for workers in [1usize, 2, 8] {
            let rt2 = Runtime::with_workers(workers);
            let mut out = Vec::new();
            let out_ref = &mut out;
            rt2.scope(move |s| {
                let gb = GraphBuilder::on(s).segment_capacity(4);
                let low = gb.source_tagged(0, |t| {
                    t.push_iter((0u64..250).map(|v| v * 10));
                });
                let high = gb.source_tagged(250, |t| {
                    for v in 250u64..500 {
                        t.push(v * 10);
                    }
                });
                gb.merge_tagged(vec![low, high], 16).collect_into(out_ref);
            });
            assert_eq!(
                out,
                (0u64..500).map(|v| v * 10).collect::<Vec<_>>(),
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
