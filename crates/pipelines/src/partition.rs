//! Deterministic hypergraph partitioning and shard routing (DESIGN.md §7).
//!
//! Placement must obey the same contract as scheduling: it may change
//! throughput, never observable output — and it must be *reproducible*, so
//! that two daemons (or two runs) derive the identical placement from the
//! identical graph. This module holds two deterministic primitives; the
//! sharding layer routes with the second, and the first has no caller in
//! the workspace since stage placement was removed (DESIGN.md §7 says why
//! it stays):
//!
//! * [`Hypergraph`] + [`partition`]: a greedy placement pass followed by
//!   synchronous-round FM refinement, in the style of the deterministic
//!   parallel partitioners (Gottesbüren et al.; Krause et al. — see
//!   PAPERS.md). All tie-breaking is by vertex id, refinement rounds
//!   propose moves against an immutable snapshot and apply them in a fixed
//!   total order, so the output is **bit-identical for any thread count**
//!   (pinned by `tests/partition_props.rs`).
//! * [`rendezvous_route`]: highest-random-weight hashing of durable job
//!   ids onto backend shards — deterministic, and minimally disruptive
//!   when the backend set changes.

/// One hyperedge: the set of vertices (pins) a queue connects, weighted
/// by (measured or assumed) traffic. Pipeline queues have one producer
/// and one consumer stage, but the partitioner accepts arbitrary pin
/// sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hyperedge {
    /// Vertex ids this edge connects. Duplicates and out-of-range pins
    /// are tolerated (ignored for cut purposes).
    pub pins: Vec<u32>,
    /// Edge weight; the cut metric charges `weight × (λ − 1)` where λ is
    /// the number of distinct parts the pins land in.
    pub weight: u64,
}

/// A vertex-weighted hypergraph, the partitioner's input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Hypergraph {
    /// Weight of each vertex (vertex id = index). Zero weights are
    /// allowed; the balance bound treats them as weight 0.
    pub vertex_weights: Vec<u64>,
    /// The hyperedges.
    pub edges: Vec<Hyperedge>,
}

impl Hypergraph {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertex_weights.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_weights.is_empty()
    }

    /// The connectivity-minus-one cut of `assignment`: for every edge,
    /// `weight × (λ − 1)` with λ = number of distinct parts among its
    /// in-range pins. Assignments shorter than the vertex count treat
    /// missing vertices as unassigned (their pins are ignored).
    pub fn cut(&self, assignment: &[u32]) -> u64 {
        let mut total = 0u64;
        let mut parts_seen: Vec<u32> = Vec::new();
        for e in &self.edges {
            parts_seen.clear();
            for &pin in &e.pins {
                if let Some(&p) = assignment.get(pin as usize) {
                    if (pin as usize) < self.vertex_weights.len() && !parts_seen.contains(&p) {
                        parts_seen.push(p);
                    }
                }
            }
            total += e.weight * (parts_seen.len() as u64).saturating_sub(1);
        }
        total
    }

    /// Per-part vertex-weight loads of `assignment` over `parts` parts.
    pub fn part_loads(&self, assignment: &[u32], parts: usize) -> Vec<u64> {
        let k = parts.max(1);
        let mut loads = vec![0u64; k];
        for (v, &p) in assignment.iter().enumerate() {
            if let Some(&w) = self.vertex_weights.get(v) {
                loads[(p as usize) % k] += w;
            }
        }
        loads
    }

    /// The balance bound `L` the partitioner enforces for `parts` parts:
    /// `max(⌈(1000 + ε‰) · total / (1000k)⌉, ⌈total/k⌉ + max_vertex_weight)`.
    /// The second term guarantees feasibility — placing every vertex into
    /// the currently lightest part can never exceed it — so [`partition`]
    /// always returns a balanced assignment.
    pub fn balance_bound(&self, parts: usize, epsilon_permille: u32) -> u64 {
        let k = parts.max(1) as u64;
        let total: u64 = self.vertex_weights.iter().sum();
        let max_w = self.vertex_weights.iter().copied().max().unwrap_or(0);
        let eps = (total.saturating_mul(1000 + epsilon_permille as u64)).div_ceil(1000 * k);
        let feasible = total.div_ceil(k) + max_w;
        eps.max(feasible)
    }

    fn incidence(&self) -> Vec<Vec<u32>> {
        let mut inc = vec![Vec::new(); self.vertex_weights.len()];
        for (eid, e) in self.edges.iter().enumerate() {
            for &pin in &e.pins {
                if let Some(list) = inc.get_mut(pin as usize) {
                    if list.last() != Some(&(eid as u32)) {
                        list.push(eid as u32);
                    }
                }
            }
        }
        inc
    }
}

/// Knobs of [`partition`]. None of them affect determinism: `threads`
/// only changes how the refinement rounds chunk their gain computation.
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// Number of parts. Clamped to ≥ 1.
    pub parts: usize,
    /// Imbalance allowance in permille (100 = parts may exceed the
    /// average load by 10%); see [`Hypergraph::balance_bound`].
    pub epsilon_permille: u32,
    /// Threads used for the synchronous refinement rounds. The output is
    /// bit-identical for every value ≥ 1 (proptest-pinned).
    pub threads: usize,
    /// Upper bound on refinement rounds (each round is a full gain
    /// recomputation; rounds stop early once no move improves the cut).
    pub max_rounds: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            parts: 2,
            epsilon_permille: 100,
            threads: 1,
            max_rounds: 8,
        }
    }
}

/// The output of [`partition`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionResult {
    /// Part of each vertex, `assignment[v] ∈ 0..parts`.
    pub assignment: Vec<u32>,
    /// Connectivity-minus-one cut of the assignment.
    pub cut: u64,
    /// Heaviest part's vertex-weight load.
    pub max_part_weight: u64,
    /// Refinement rounds that applied at least one move.
    pub rounds: usize,
}

/// One candidate move proposed by a refinement round: computed against
/// the round's frozen snapshot, re-validated against the live assignment
/// before it applies.
#[derive(Clone, Copy, Debug)]
struct Move {
    gain: u64,
    vertex: u32,
    target: u32,
}

/// Partitions `g` into `cfg.parts` balanced parts, minimising the
/// connectivity-minus-one cut. Deterministic: identical `(g, parts,
/// epsilon, max_rounds)` produce bit-identical output for **any**
/// `threads` value — ties break by vertex id, and every round proposes
/// moves against an immutable snapshot then applies them in one fixed
/// total order (DESIGN.md §7).
///
/// The result never has a worse cut than the trivial round-robin
/// placement (`v ↦ v mod parts`) when that placement is itself balanced:
/// round-robin is evaluated as a guard candidate at the end.
pub fn partition(g: &Hypergraph, cfg: &PartitionConfig) -> PartitionResult {
    let k = cfg.parts.max(1);
    let n = g.len();
    let bound = g.balance_bound(k, cfg.epsilon_permille);
    let inc = g.incidence();

    // --- Greedy placement: heaviest vertices first, ties by id. -----------
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        g.vertex_weights[b as usize]
            .cmp(&g.vertex_weights[a as usize])
            .then(a.cmp(&b))
    });
    let mut assignment: Vec<u32> = vec![u32::MAX; n];
    let mut loads = vec![0u64; k];
    for &v in &order {
        let w = g.vertex_weights[v as usize];
        // Connectivity gain of placing v into part p: total weight of
        // incident edges that already touch p.
        let mut best: Option<(u64, u64, usize)> = None; // (gain, load, part)
        for (p, &load) in loads.iter().enumerate() {
            if load + w > bound {
                continue;
            }
            let mut gain = 0u64;
            for &eid in &inc[v as usize] {
                let e = &g.edges[eid as usize];
                let touches = e.pins.iter().any(|&pin| {
                    pin != v && assignment.get(pin as usize).copied() == Some(p as u32)
                });
                if touches {
                    gain += e.weight;
                }
            }
            let better = match best {
                None => true,
                Some((bg, bl, _)) => gain > bg || (gain == bg && load < bl),
            };
            if better {
                best = Some((gain, load, p));
            }
        }
        let p = match best {
            Some((_, _, p)) => p,
            // No part fits under the bound (cannot happen given how the
            // bound is derived, but stay total): lightest part, lowest id.
            None => {
                let mut p = 0;
                for q in 1..k {
                    if loads[q] < loads[p] {
                        p = q;
                    }
                }
                p
            }
        };
        assignment[v as usize] = p as u32;
        loads[p] += w;
    }

    // --- Synchronous FM refinement rounds. ---------------------------------
    let mut rounds = 0;
    for _ in 0..cfg.max_rounds {
        let snapshot = assignment.clone();
        let proposals = propose_moves(g, &inc, &snapshot, k, cfg.threads.max(1));
        let mut applied = 0;
        for m in &proposals {
            let v = m.vertex as usize;
            let from = assignment[v];
            if from == m.target {
                continue;
            }
            let w = g.vertex_weights[v];
            if loads[m.target as usize] + w > bound {
                continue;
            }
            // Re-validate against the live assignment: earlier moves this
            // round may have changed the neighbourhood.
            if move_gain(g, &inc, &assignment, m.vertex, m.target) <= 0 {
                continue;
            }
            assignment[v] = m.target;
            loads[from as usize] -= w;
            loads[m.target as usize] += w;
            applied += 1;
        }
        if applied == 0 {
            break;
        }
        rounds += 1;
    }

    // --- Round-robin guard. -------------------------------------------------
    // If the trivial placement is balanced and strictly better, take it:
    // this makes "never worse than round-robin" hold by construction.
    let mut best_assignment = assignment;
    let mut best_cut = g.cut(&best_assignment);
    let rr: Vec<u32> = (0..n as u32).map(|v| v % k as u32).collect();
    let rr_loads = g.part_loads(&rr, k);
    if rr_loads.iter().all(|&l| l <= bound) {
        let rr_cut = g.cut(&rr);
        if rr_cut < best_cut {
            best_assignment = rr;
            best_cut = rr_cut;
        }
    }
    let max_part_weight = g
        .part_loads(&best_assignment, k)
        .into_iter()
        .max()
        .unwrap_or(0);
    PartitionResult {
        assignment: best_assignment,
        cut: best_cut,
        max_part_weight,
        rounds,
    }
}

/// Computes every vertex's best positive-gain move against the frozen
/// `snapshot`, chunked over `threads` workers. The chunks are contiguous
/// id ranges concatenated in order, and each per-vertex computation reads
/// only the snapshot — so the proposal list is independent of `threads`.
/// The list comes back sorted by (gain desc, vertex asc, target asc): the
/// fixed total order the apply pass walks.
fn propose_moves(
    g: &Hypergraph,
    inc: &[Vec<u32>],
    snapshot: &[u32],
    k: usize,
    threads: usize,
) -> Vec<Move> {
    let n = snapshot.len();
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let mut proposals: Vec<Move> = if threads <= 1 || n <= chunk {
        propose_range(g, inc, snapshot, k, 0, n)
    } else {
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(n)))
            .collect();
        let mut out: Vec<Vec<Move>> = Vec::with_capacity(ranges.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&(lo, hi)| s.spawn(move || propose_range(g, inc, snapshot, k, lo, hi)))
                .collect();
            for h in handles {
                out.push(h.join().expect("partition worker panicked"));
            }
        });
        out.into_iter().flatten().collect()
    };
    proposals.sort_by(|a, b| {
        b.gain
            .cmp(&a.gain)
            .then(a.vertex.cmp(&b.vertex))
            .then(a.target.cmp(&b.target))
    });
    proposals
}

fn propose_range(
    g: &Hypergraph,
    inc: &[Vec<u32>],
    snapshot: &[u32],
    k: usize,
    lo: usize,
    hi: usize,
) -> Vec<Move> {
    let mut out = Vec::new();
    for v in lo..hi {
        let from = snapshot[v];
        let mut best: Option<Move> = None;
        for p in 0..k as u32 {
            if p == from {
                continue;
            }
            let gain = move_gain(g, inc, snapshot, v as u32, p);
            if gain <= 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => (gain as u64) > b.gain,
            };
            if better {
                best = Some(Move {
                    gain: gain as u64,
                    vertex: v as u32,
                    target: p,
                });
            }
        }
        if let Some(m) = best {
            out.push(m);
        }
    }
    out
}

/// Cut delta (positive = improvement) of moving `v` to `target` under
/// `assignment`.
fn move_gain(g: &Hypergraph, inc: &[Vec<u32>], assignment: &[u32], v: u32, target: u32) -> i64 {
    let from = assignment[v as usize];
    if from == target {
        return 0;
    }
    let mut gain = 0i64;
    let mut parts: Vec<u32> = Vec::new();
    for &eid in &inc[v as usize] {
        let e = &g.edges[eid as usize];
        let lambda = |moved: bool, parts: &mut Vec<u32>| -> u64 {
            parts.clear();
            for &pin in &e.pins {
                let p = if pin == v && moved {
                    target
                } else {
                    match assignment.get(pin as usize) {
                        Some(&p) if p != u32::MAX => p,
                        _ => continue,
                    }
                };
                if !parts.contains(&p) {
                    parts.push(p);
                }
            }
            (parts.len() as u64).saturating_sub(1)
        };
        let before = lambda(false, &mut parts);
        let after = lambda(true, &mut parts);
        gain += e.weight as i64 * (before as i64 - after as i64);
    }
    gain
}

// ---------------------------------------------------------------------------
// Rendezvous (highest-random-weight) routing.
// ---------------------------------------------------------------------------

/// SplitMix64: the avalanche mixer behind both the wire-level retry
/// jitter and [`rendezvous_route`]. Public here so routers and tests
/// score candidates with the exact function the daemon uses.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Routes a durable job id onto one of `backends` shards by rendezvous
/// (highest-random-weight) hashing: every (id, shard) pair gets a score
/// `splitmix64(id ^ splitmix64(shard + 1))` and the highest score wins,
/// ties to the lowest shard index. Deterministic, uniform, and minimally
/// disruptive: removing one backend only remaps the ids that were on it
/// (DESIGN.md §7.2).
pub fn rendezvous_route(job_id: u64, backends: usize) -> usize {
    let n = backends.max(1);
    let mut best = 0usize;
    let mut best_score = 0u64;
    for i in 0..n {
        let score = splitmix64(job_id ^ splitmix64(i as u64 + 1));
        if i == 0 || score > best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Hypergraph {
        Hypergraph {
            vertex_weights: vec![1; n],
            edges: (0..n.saturating_sub(1))
                .map(|i| Hyperedge {
                    pins: vec![i as u32, i as u32 + 1],
                    weight: 10,
                })
                .collect(),
        }
    }

    #[test]
    fn chain_partition_is_contiguous_and_balanced() {
        let g = chain(8);
        let res = partition(
            &g,
            &PartitionConfig {
                parts: 2,
                ..Default::default()
            },
        );
        let bound = g.balance_bound(2, 100);
        for l in g.part_loads(&res.assignment, 2) {
            assert!(l <= bound, "load {l} over bound {bound}");
        }
        // A chain of 8 unit vertices in two parts can always reach cut 10
        // (a single severed edge).
        assert_eq!(res.cut, 10, "assignment: {:?}", res.assignment);
        assert_eq!(res.cut, g.cut(&res.assignment));
    }

    #[test]
    fn identical_output_for_any_thread_count() {
        let g = Hypergraph {
            vertex_weights: (0..40).map(|v| 1 + v % 7).collect(),
            edges: (0..60)
                .map(|i| Hyperedge {
                    pins: vec![
                        (splitmix64(i) % 40) as u32,
                        (splitmix64(i * 31 + 7) % 40) as u32,
                        (splitmix64(i * 17 + 3) % 40) as u32,
                    ],
                    weight: 1 + splitmix64(i + 99) % 20,
                })
                .collect(),
        };
        let base = partition(
            &g,
            &PartitionConfig {
                parts: 3,
                threads: 1,
                ..Default::default()
            },
        );
        for threads in [2, 3, 8, 17] {
            let res = partition(
                &g,
                &PartitionConfig {
                    parts: 3,
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(res, base, "threads={threads} diverged");
        }
    }

    #[test]
    fn never_worse_than_round_robin() {
        let g = chain(12);
        let cfg = PartitionConfig {
            parts: 3,
            ..Default::default()
        };
        let res = partition(&g, &cfg);
        let rr: Vec<u32> = (0..12).map(|v| v % 3).collect();
        assert!(res.cut <= g.cut(&rr));
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        let g = Hypergraph::default();
        let res = partition(&g, &PartitionConfig::default());
        assert!(res.assignment.is_empty());
        assert_eq!(res.cut, 0);

        let g = Hypergraph {
            vertex_weights: vec![5],
            edges: vec![],
        };
        let res = partition(
            &g,
            &PartitionConfig {
                parts: 4,
                ..Default::default()
            },
        );
        assert_eq!(res.assignment, vec![0]);
        assert_eq!(res.max_part_weight, 5);
    }

    #[test]
    fn rendezvous_is_deterministic_and_total() {
        for id in 0..200u64 {
            for n in 1..=5usize {
                let a = rendezvous_route(id, n);
                assert!(a < n);
                assert_eq!(a, rendezvous_route(id, n), "route must be stable");
            }
        }
        // Routing spreads ids over all shards.
        let mut seen = [false; 3];
        for id in 0..64u64 {
            seen[rendezvous_route(id, 3)] = true;
        }
        assert!(seen.iter().all(|&s| s), "3-way routing left a shard cold");
    }

    #[test]
    fn rendezvous_minimal_remap() {
        // Dropping the last backend only remaps ids that lived on it.
        for id in 0..500u64 {
            let with3 = rendezvous_route(id, 3);
            let with2 = rendezvous_route(id, 2);
            if with3 < 2 {
                assert_eq!(with3, with2, "id {id} moved despite its shard surviving");
            }
        }
    }
}
