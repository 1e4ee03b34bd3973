//! The GPU-friendly pattern-routing dynamic program (paper Section III-D/E/F).
//!
//! One multi-pin net maps to one device block. Its two-pin nets (tree edges)
//! are processed in the bottom-up DFS order; for every edge the DP computes
//! `c*(Ps, Pt, lt)` — the minimum cost of routing the edge plus its whole
//! child subtree, arriving at the parent position on layer `lt` — via the
//! min-plus computation-graph flows of Eqs. 5–7 (L-shape) and 11–14
//! (Z/hybrid shape), merged per Eq. 10. The bottom-children cost of Eq. 2 is
//! solved exactly by via-stack interval enumeration (`O(L^2)` intervals,
//! see `DESIGN.md` §6).
//!
//! Every via-stack cost comes from one via-prefix row per G-cell
//! (`cv(p, a, b) = |pre[b] − pre[a]|`), and every `L x L` min-plus product
//! of a via stack followed by a wire run is computed exactly in O(L) by
//! [`stack_min_plus_into`], so a candidate bend pair costs O(L) on the
//! host. The modelled [`BlockProfile`] keeps the paper's `L x L` work per
//! stage (`DESIGN.md` §9).
//!
//! Full argmin backtracking reconstructs the winning geometry, including
//! the via stacks joining children (and the pin-layer access stacks, which
//! this reproduction folds into the same interval formulation: a pin node
//! forces its via stack to reach layer 0).
//!
//! # Memory discipline
//!
//! Pattern routing calls this DP once per net per batch, so its working
//! memory is hoisted into a reusable [`DpScratch`]:
//! [`PatternDp::route_net_into`] performs **zero heap allocation in steady
//! state** — every table, flow buffer, and traversal stack lives in the
//! scratch (or the recycled output [`Route`]) and only grows to the
//! high-water mark of the nets routed through it. The owned-result
//! [`PatternDp::route_net`] wrapper keeps one scratch per thread, so the
//! only steady-state allocations left on that path are the geometry
//! buffers of the `Route` it returns by value.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::cell::RefCell;

use fastgr_gpu::flow::{merge_min_rows, stack_min_plus_into};
use fastgr_gpu::BlockProfile;
use fastgr_grid::{CostProber, GridGraph, Point2, Route, Segment, Via};
use fastgr_steiner::{RouteTree, TreeEdge, TreeNode};

use crate::selection::{NetClass, SelectionThresholds};

/// Which candidate pattern set each two-pin net is routed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatternMode {
    /// 3-D L-shape patterns only (`L x L` candidates) — FastGR_L.
    LShape,
    /// Pure Z-shape patterns (`(M + N - 2) x L^3` candidates) — the
    /// Section III-E kernel, kept for ablation.
    ZShape,
    /// Hybrid shape (Z + degenerate L, `M + N` bend pairs) with the
    /// selection technique: only *medium* nets (per the thresholds) use the
    /// hybrid kernel, the rest use L-shape — FastGR_H.
    Hybrid(SelectionThresholds),
    /// Hybrid shape applied to every two-pin net regardless of size
    /// (the "without selection" ablation of Table VI).
    HybridAll,
}

/// Result of routing one multi-pin net with the pattern DP.
#[derive(Debug, Clone)]
pub struct NetDpResult {
    /// The winning geometry (connected; includes pin-access via stacks).
    pub route: Route,
    /// The DP cost of the winning solution under the current congestion,
    /// in the grid's Q44.20 cost domain.
    pub cost: u64,
    /// Simulated device flow profile of this net's block.
    pub profile: BlockProfile,
    /// Cost probes this net made (see [`DpSummary::probes`]).
    pub probes: u64,
}

/// Cost and device profile of one routed net — what
/// [`PatternDp::route_net_into`] returns alongside the geometry it wrote
/// into the caller's [`Route`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpSummary {
    /// The DP cost of the winning solution under the current congestion,
    /// in the grid's Q44.20 cost domain.
    pub cost: u64,
    /// Simulated device flow profile of this net's block.
    pub profile: BlockProfile,
    /// Cost probes this net made: each wire-run probe and each via-prefix
    /// row read counts 1. Counted per net in the caller's [`DpScratch`],
    /// so it is deterministic and no thread writes a shared counter.
    pub probes: u64,
}

/// Per-(edge, target-layer) backtracking record.
#[derive(Debug, Clone, Copy)]
struct EdgeChoice {
    /// Candidate index (pattern-dependent meaning) or `CAND_PURE_VIA`.
    candidate: u32,
    /// Winning source layer `ls`.
    ls: u8,
    /// Winning bridge layer `lb` (Z/hybrid only; unused for L-shape).
    lb: u8,
}

const EDGE_CHOICE_EMPTY: EdgeChoice = EdgeChoice {
    candidate: 0,
    ls: 0,
    lb: 0,
};

const CAND_PURE_VIA: u32 = u32::MAX;

/// Reusable working memory for the pattern DP.
///
/// All tables are flat, layer-strided vectors sized per net (number of
/// tree nodes × layer count); re-sizing only ever reuses capacity once the
/// buffers have seen the largest net, so repeated
/// [`PatternDp::route_net_into`] calls through one scratch allocate
/// nothing. One scratch serves one thread at a time; the worker-pool
/// engines keep one per thread. Every cost is a Q44.20 `u64`, with
/// `u64::MAX` as infinity (see [`fastgr_gpu::flow`]).
#[derive(Debug, Default)]
pub struct DpScratch {
    /// Bottom-up edge order of the current tree.
    edges: Vec<TreeEdge>,
    /// DFS working stack for [`RouteTree::ordered_edges_into`].
    dfs_stack: Vec<u32>,
    /// `edge_cost[v * L + lt]`: DP cost of edge `v -> parent(v)` arriving
    /// on layer `lt`.
    edge_cost: Vec<u64>,
    /// Backtracking record per `(edge, lt)` lane.
    edge_choice: Vec<EdgeChoice>,
    /// Winning via-stack interval per `(node, ls)` lane.
    stack_lo: Vec<u8>,
    stack_hi: Vec<u8>,
    /// Start of each node's region inside `layer_arena`.
    arena_offset: Vec<u32>,
    /// Chosen child arrival layers: node `v` with `d` children owns the
    /// region `[arena_offset[v] .. arena_offset[v] + d * L)`, laid out as
    /// `ls * d + child_index`.
    layer_arena: Vec<u8>,
    /// Bottom-children cost `cbc(Ps, ls)` of the edge in flight.
    cbc: Vec<u64>,
    /// Child arrival layers of the interval currently being tried.
    trial_layers: Vec<u8>,
    /// Output lanes of the edge in flight (copied into `edge_cost` /
    /// `edge_choice` once complete — the copy keeps borrows disjoint).
    out_cost: Vec<u64>,
    out_choice: Vec<EdgeChoice>,
    /// Source-side flow operand `w1` of Eqs. 5 and 11.
    w1: Vec<u64>,
    /// Via-stack prefix rows of the G-cell in flight and, in the Z/hybrid
    /// flow, of the target-side bend: `cv(p, a, b) = |pre[b] − pre[a]|`.
    pre_s: Vec<u64>,
    pre_t: Vec<u64>,
    /// Chain intermediates: best source per bridge layer.
    mid_values: Vec<u64>,
    mid_argmin: Vec<usize>,
    /// Per-candidate flow output lanes.
    lane_values: Vec<u64>,
    lane_argmin: Vec<usize>,
    /// All candidates' lanes, flattened `candidate * L + lt`.
    cand_values: Vec<u64>,
    cand_src: Vec<u32>,
    cand_mid: Vec<u32>,
    /// Winning candidate per lane after the Eq. 10 merge.
    merged_argmin: Vec<usize>,
    /// Candidate bend-point pairs of the Z/hybrid flow.
    pairs: Vec<(Point2, Point2)>,
    /// Per-layer wire terms following each via stack: `cw(B, T, lt)` of
    /// Eq. 6, `cw(Bs, Bt, lb)` of Eq. 12, `cw(Bt, T, lt)` of Eq. 13, and
    /// zero for a pure-via edge. Lane 0 (the pin layer) is infinite.
    run2: Vec<u64>,
    run3: Vec<u64>,
    /// Backtracking stack of `(edge, arrival layer)`.
    bt_stack: Vec<(TreeEdge, u8)>,
    /// Cost probes of the net in flight ([`DpSummary::probes`]).
    probes: u64,
}

impl DpScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread scratch backing [`PatternDp::route_net`]; worker-pool
    /// engines route many nets per thread, so the tables stay warm.
    static ROUTE_NET_SCRATCH: RefCell<DpScratch> = RefCell::new(DpScratch::new());
}

/// Where the DP reads its wire-run costs from.
///
/// Both variants work in the same Q44.20 quantised cost domain, so a
/// probed DP and a direct DP produce bit-identical costs and routes — the
/// prober only changes *how fast* a cost is obtained (O(1) prefix
/// difference vs O(run-length) walk). Via stacks come from the grid's
/// cached via costs in both ([`GridGraph::via_prefix_into`]); the pattern
/// stage commits a batch only after routing all of it, so they match the
/// prober's snapshot.
#[derive(Debug)]
enum CostSource<'g> {
    /// A caller-managed prober, refreshed between batches by the pattern
    /// stage.
    Prober(&'g CostProber),
    /// No cache: every probe walks the grid's quantised edge costs.
    Direct,
}

/// The pattern-routing DP engine for one grid state.
///
/// Costs are read through a caller-managed prefix-sum [`CostProber`]
/// ([`PatternDp::with_prober`]; the pattern stage refreshes it
/// incrementally between batches); [`PatternDp::direct`] skips the cache
/// and walks the grid per probe — same quantised arithmetic, bit-identical
/// results, O(run-length) slower per probe.
///
/// # Example
///
/// ```
/// use fastgr_core::{PatternDp, PatternMode};
/// use fastgr_design::{Net, NetId, Pin};
/// use fastgr_grid::{CostParams, CostProber, GridGraph, Point2};
/// use fastgr_steiner::SteinerBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut graph = GridGraph::new(16, 16, 5, CostParams::default())?;
/// graph.fill_capacity(4.0);
/// let net = Net::new(NetId(0), "n", vec![
///     Pin::new(Point2::new(1, 1), 0),
///     Pin::new(Point2::new(10, 7), 0),
/// ]);
/// let tree = SteinerBuilder::new().build(&net);
/// let prober = CostProber::build(&graph);
/// let dp = PatternDp::with_prober(&graph, PatternMode::LShape, &prober);
/// let result = dp.route_net(&tree).expect("routable");
/// assert!(result.route.is_connected());
/// assert_eq!(result.route.wirelength(), 15); // HPWL-tight L path
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PatternDp<'g> {
    graph: &'g GridGraph,
    mode: PatternMode,
    costs: CostSource<'g>,
}

impl<'g> PatternDp<'g> {
    /// Creates a DP engine reading costs from a caller-managed prober
    /// (built/refreshed against the same `graph`; the DP sees the
    /// congestion of the prober's last build or refresh).
    pub fn with_prober(graph: &'g GridGraph, mode: PatternMode, prober: &'g CostProber) -> Self {
        Self {
            graph,
            mode,
            costs: CostSource::Prober(prober),
        }
    }

    /// Creates a DP engine without a cost cache: probes walk the grid's
    /// quantised edge costs directly. Bit-identical to the probed engines,
    /// O(run-length) per probe — kept for the prober-off bench dimension
    /// and the equivalence tests.
    pub fn direct(graph: &'g GridGraph, mode: PatternMode) -> Self {
        Self {
            graph,
            mode,
            costs: CostSource::Direct,
        }
    }

    /// The pattern mode in use.
    pub fn mode(&self) -> PatternMode {
        self.mode
    }

    /// Cost `cw(a, b, l)` of a straight run, from the active cost source.
    #[inline]
    fn run_cost(&self, l: u8, a: Point2, b: Point2) -> u64 {
        match &self.costs {
            CostSource::Prober(p) => p.wire_run_cost(l, a, b),
            CostSource::Direct => self.graph.wire_run_cost(l, a, b),
        }
    }

    /// The wire term that follows a via stack at `a`, per layer: lane 0
    /// (the pin layer carries no wire) is infinite, lane `b` is
    /// `cw(a, c, b)`. Makes `l - 1` wire-run probes.
    fn bridge_runs_into(&self, a: Point2, c: Point2, l: usize, out: &mut Vec<u64>) {
        out.clear();
        out.push(u64::MAX);
        out.extend((1..l).map(|b| self.run_cost(b as u8, a, c)));
    }

    /// Extra modeled gather depth per flow entry: the direct engine walks
    /// every gcell of a run to cost it, so its blocks carry the run span as
    /// serial depth; probed engines gather in O(1).
    #[inline]
    fn gather_depth(&self, span: usize) -> usize {
        match &self.costs {
            CostSource::Direct => span,
            CostSource::Prober(_) => 0,
        }
    }

    /// Routes one net given its Steiner tree. Returns `None` when no
    /// finite-cost pattern exists (fewer than one routable layer per
    /// direction — cannot happen on the standard suite's grids).
    ///
    /// Thin wrapper over [`PatternDp::route_net_into`] with a per-thread
    /// [`DpScratch`]; the returned [`Route`] is the only per-call heap
    /// use.
    pub fn route_net(&self, tree: &RouteTree) -> Option<NetDpResult> {
        ROUTE_NET_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let mut route = Route::new();
            self.route_net_into(tree, &mut scratch, &mut route)
                .map(|summary| NetDpResult {
                    route,
                    cost: summary.cost,
                    profile: summary.profile,
                    probes: summary.probes,
                })
        })
    }

    /// Routes one net, writing the winning geometry into `out` (cleared
    /// first) and drawing all working memory from `scratch`. In steady
    /// state — once the scratch and `out` have grown to the largest net —
    /// this performs **no heap allocation**.
    ///
    /// Returns `None` when no finite-cost pattern exists; `out` content is
    /// unspecified in that case.
    pub fn route_net_into(
        &self,
        tree: &RouteTree,
        scratch: &mut DpScratch,
        out: &mut Route,
    ) -> Option<DpSummary> {
        out.clear();
        scratch.probes = 0;
        let l = self.graph.num_layers() as usize;
        tree.ordered_edges_into(&mut scratch.dfs_stack, &mut scratch.edges);
        if scratch.edges.is_empty() {
            // Single-node net: no geometry needed.
            return Some(DpSummary {
                cost: 0,
                profile: BlockProfile::new(1, 1),
                probes: 0,
            });
        }

        let n_nodes = tree.node_count();
        scratch.edge_cost.clear();
        scratch.edge_cost.resize(n_nodes * l, u64::MAX);
        scratch.edge_choice.clear();
        scratch.edge_choice.resize(n_nodes * l, EDGE_CHOICE_EMPTY);
        scratch.stack_lo.clear();
        scratch.stack_lo.resize(n_nodes * l, 0);
        scratch.stack_hi.clear();
        scratch.stack_hi.resize(n_nodes * l, 0);
        scratch.arena_offset.clear();
        let mut arena_len = 0u32;
        for node in tree.nodes() {
            scratch.arena_offset.push(arena_len);
            arena_len += (node.children.len() * l) as u32;
        }
        scratch.layer_arena.clear();
        scratch.layer_arena.resize(arena_len as usize, 0);

        let mut profile = BlockProfile::new(1, 0);
        for i in 0..scratch.edges.len() {
            let edge = scratch.edges[i];
            let v = edge.child as usize;
            let ps = tree.node(edge.child).position;
            let pt = tree.node(edge.parent).position;
            let deg = tree.node(edge.child).children.len();

            // Bottom-children cost of the child node (Eq. 2 + pin access).
            self.bottom_cost_into(tree, v, scratch);
            profile = profile.then(BlockProfile::new(
                l * l,
                1 + (deg + 1).next_power_of_two().trailing_zeros() as usize,
            ));

            // Route the edge with the mode-selected pattern set.
            let edge_profile = if ps == pt {
                self.pure_via_into(ps, scratch)
            } else if self.uses_hybrid(ps, pt) {
                self.z_or_hybrid_into(ps, pt, scratch)
            } else {
                self.l_shape_into(ps, pt, scratch)
            };
            profile = profile.then(edge_profile);
            scratch.edge_cost[v * l..(v + 1) * l].copy_from_slice(&scratch.out_cost);
            scratch.edge_choice[v * l..(v + 1) * l].copy_from_slice(&scratch.out_choice);
        }

        // Final reduction at the root (Eq. 4 generalised to multi-child
        // roots): pick the via-stack interval covering the root pin.
        let root = tree.root();
        let (root_total, root_lo, root_hi) = self.root_cost_into(tree, scratch)?;
        profile = profile.then(BlockProfile::new(l * l, 2));

        // Back-track the geometry.
        let root_pos = tree.node(root).position;
        if root_hi > root_lo {
            out.push_via(Via::new(root_pos, root_lo, root_hi));
        }
        scratch.bt_stack.clear();
        let root_arena = scratch.arena_offset[root as usize] as usize;
        for (i, &c) in tree.node(root).children.iter().enumerate() {
            scratch.bt_stack.push((
                TreeEdge {
                    child: c,
                    parent: root,
                },
                scratch.layer_arena[root_arena + i],
            ));
        }
        while let Some((edge, lt)) = scratch.bt_stack.pop() {
            let v = edge.child as usize;
            let choice = scratch.edge_choice[v * l + lt as usize];
            let ps = tree.node(edge.child).position;
            let pt = tree.node(edge.parent).position;
            self.emit_edge(out, ps, pt, lt, choice);
            let ls = choice.ls as usize;
            let (lo, hi) = (scratch.stack_lo[v * l + ls], scratch.stack_hi[v * l + ls]);
            if hi > lo {
                out.push_via(Via::new(ps, lo, hi));
            }
            let children = &tree.node(edge.child).children;
            let base = scratch.arena_offset[v] as usize + ls * children.len();
            for (i, &c) in children.iter().enumerate() {
                scratch.bt_stack.push((
                    TreeEdge {
                        child: c,
                        parent: edge.child,
                    },
                    scratch.layer_arena[base + i],
                ));
            }
        }
        // Canonicalise: tree legs may overlap (two children sharing a
        // row); the physical net occupies each track once, so demand is
        // committed on the union. The DP cost keeps counting legs
        // independently (that is the objective the kernels optimise), so
        // `cost` is an upper bound on the geometry's cost.
        out.normalize();

        Some(DpSummary {
            cost: root_total,
            profile,
            probes: scratch.probes,
        })
    }

    /// Bottom-children cost `cbc(Ps, ls)` (Eq. 2) with pin access folded in:
    /// for every source layer `ls`, choose the via-stack interval
    /// `[lo, hi] ∋ ls` (with `lo = 0` forced at pins) minimising stack cost
    /// plus each child's best arrival layer inside the interval. Results
    /// land in `scratch.cbc` / `stack_lo` / `stack_hi` / `layer_arena`.
    fn bottom_cost_into(&self, tree: &RouteTree, v: usize, scratch: &mut DpScratch) {
        let l = self.graph.num_layers() as usize;
        let node = tree.node(v as u32);
        let deg = node.children.len();
        scratch.cbc.clear();
        scratch.cbc.resize(l, u64::MAX);
        let arena = scratch.arena_offset[v] as usize;
        self.graph
            .via_prefix_into(node.position, &mut scratch.pre_s);
        scratch.probes += 1;
        for ls in 1..l {
            let (cost, lo, hi) =
                best_interval(scratch, node, l, ls as u8, ls as u8, arena + ls * deg);
            scratch.cbc[ls] = cost;
            scratch.stack_lo[v * l + ls] = lo;
            scratch.stack_hi[v * l + ls] = hi;
        }
    }

    /// Root reduction: like [`Self::bottom_cost_into`] but with no outgoing
    /// edge, minimising over every interval. The winning child arrival
    /// layers land in the root's `ls = 0` arena lane; returns
    /// `(total, lo, hi)` or `None` when infeasible.
    fn root_cost_into(&self, tree: &RouteTree, scratch: &mut DpScratch) -> Option<(u64, u8, u8)> {
        let l = self.graph.num_layers() as usize;
        let root = tree.root();
        let node = tree.node(root);
        self.graph
            .via_prefix_into(node.position, &mut scratch.pre_s);
        scratch.probes += 1;
        let lane = scratch.arena_offset[root as usize] as usize;
        let best = best_interval(scratch, node, l, l as u8 - 1, 1, lane);
        (best.0 != u64::MAX).then_some(best)
    }

    /// Degenerate edge whose endpoints share a G-cell: a pure via stack.
    /// Writes `scratch.out_cost` / `out_choice`.
    fn pure_via_into(&self, pos: Point2, scratch: &mut DpScratch) -> BlockProfile {
        let l = scratch.cbc.len();
        // out[lt] = min_ls (cbc[ls] + cv(pos, ls, lt)), lt >= 1.
        self.graph.via_prefix_into(pos, &mut scratch.pre_s);
        scratch.probes += 1;
        scratch.run2.clear();
        scratch.run2.push(u64::MAX);
        scratch.run2.resize(l, 0);
        stack_min_plus_into(
            &scratch.cbc,
            &scratch.pre_s,
            &scratch.run2,
            &mut scratch.out_cost,
            &mut scratch.lane_argmin,
        );
        let (out_choice, lane_argmin) = (&mut scratch.out_choice, &scratch.lane_argmin);
        out_choice.clear();
        out_choice.extend(lane_argmin.iter().map(|&ls| EdgeChoice {
            candidate: CAND_PURE_VIA,
            ls: ls as u8,
            lb: 0,
        }));
        BlockProfile::new(l * l, 2)
    }

    /// The GPU-friendly 3-D L-shape flow (Eqs. 5–7, Fig. 8): two bend
    /// candidates, each an `L x L` min-plus product, merged per target
    /// layer. The host computes each product as an O(L) via-stack bridge
    /// reduction ([`stack_min_plus_into`]); the modelled block keeps the
    /// `L x L` work. Writes `scratch.out_cost` / `out_choice`.
    fn l_shape_into(&self, ps: Point2, pt: Point2, scratch: &mut DpScratch) -> BlockProfile {
        let l = scratch.cbc.len();
        let bends = [Point2::new(pt.x, ps.y), Point2::new(ps.x, pt.y)];
        scratch.cand_values.clear();
        scratch.cand_values.resize(2 * l, u64::MAX);
        scratch.cand_src.clear();
        scratch.cand_src.resize(2 * l, 0);
        for (ci, &bend) in bends.iter().enumerate() {
            // w1[ls] = cbc(Ps, ls) + cw(Ps, B, ls)            (Eq. 5)
            let (w1, cbc) = (&mut scratch.w1, &scratch.cbc);
            w1.clear();
            w1.extend(
                cbc.iter()
                    .enumerate()
                    .map(|(ls, &c)| c.saturating_add(self.run_cost(ls as u8, ps, bend))),
            );
            // w2[ls][lt] = cv(B, ls, lt) + cw(B, T, lt)       (Eq. 6)
            // is the via-prefix row of B plus one wire probe per lt >= 1.
            self.graph.via_prefix_into(bend, &mut scratch.pre_s);
            self.bridge_runs_into(bend, pt, l, &mut scratch.run2);
            // L wire probes for w1, L - 1 for run2 and one row read.
            scratch.probes += 2 * l as u64;
            // c*(lt) = min_ls (w1[ls] + w2[ls][lt])           (Eq. 7)
            stack_min_plus_into(
                &scratch.w1,
                &scratch.pre_s,
                &scratch.run2,
                &mut scratch.lane_values,
                &mut scratch.lane_argmin,
            );
            scratch.cand_values[ci * l..(ci + 1) * l].copy_from_slice(&scratch.lane_values);
            for (t, &src) in scratch.lane_argmin.iter().enumerate() {
                scratch.cand_src[ci * l + t] = src as u32;
            }
        }
        merge_min_rows(
            &scratch.cand_values,
            l,
            &mut scratch.out_cost,
            &mut scratch.merged_argmin,
        );
        let (out_choice, merged_argmin, cand_src) = (
            &mut scratch.out_choice,
            &scratch.merged_argmin,
            &scratch.cand_src,
        );
        out_choice.clear();
        out_choice.extend((0..l).map(|lt| {
            let cand = merged_argmin[lt];
            EdgeChoice {
                candidate: cand as u32,
                ls: cand_src[cand * l + lt] as u8,
                lb: 0,
            }
        }));
        // Flow: build stage + reduce over ls + merge over 2 candidates;
        // the direct engine's build stage serially walks each run.
        let depth = 2
            + (l.next_power_of_two().trailing_zeros() as usize)
            + 1
            + self.gather_depth(ps.manhattan_distance(pt) as usize);
        BlockProfile::new(2 * l * l, depth)
    }

    /// The GPU-friendly 3-D Z-shape / hybrid flow (Eqs. 11–14, Figs. 9–10):
    /// one chained min-plus flow per candidate bend-point pair
    /// ([`Self::bend_pairs`]), merged per Eq. 10. On the host each of the
    /// two chained `L x L` products is an O(L) via-stack bridge reduction
    /// ([`stack_min_plus_into`]), so a candidate costs O(L); the modelled
    /// block keeps the `n_pairs · L · L` work. Writes `scratch.out_cost` /
    /// `out_choice`.
    fn z_or_hybrid_into(&self, ps: Point2, pt: Point2, scratch: &mut DpScratch) -> BlockProfile {
        let l = scratch.cbc.len();
        scratch.pairs.clear();
        scratch.pairs.extend(self.bend_pairs(ps, pt));
        let n_pairs = scratch.pairs.len();
        debug_assert!(n_pairs > 0);

        scratch.cand_values.clear();
        scratch.cand_values.resize(n_pairs * l, u64::MAX);
        scratch.cand_src.clear();
        scratch.cand_src.resize(n_pairs * l, 0);
        scratch.cand_mid.clear();
        scratch.cand_mid.resize(n_pairs * l, 0);
        for ci in 0..n_pairs {
            let (bs, bt) = scratch.pairs[ci];
            // w1[ls] = cbc + cw(Ps, Bs, ls)                   (Eq. 11)
            let (w1, cbc) = (&mut scratch.w1, &scratch.cbc);
            w1.clear();
            w1.extend(
                cbc.iter()
                    .enumerate()
                    .map(|(ls, &c)| c.saturating_add(self.run_cost(ls as u8, ps, bs))),
            );
            // w2[ls][lb] = cv(Bs, ls, lb) + cw(Bs, Bt, lb)    (Eq. 12)
            // w3[lb][lt] = cv(Bt, lb, lt) + cw(Bt, T, lt)     (Eq. 13)
            // Each is a via-prefix row plus one wire probe per layer >= 1.
            self.graph.via_prefix_into(bs, &mut scratch.pre_s);
            self.graph.via_prefix_into(bt, &mut scratch.pre_t);
            self.bridge_runs_into(bs, bt, l, &mut scratch.run2);
            self.bridge_runs_into(bt, pt, l, &mut scratch.run3);
            // L wire probes for w1, L - 1 each for run2 and run3, two rows.
            scratch.probes += 3 * l as u64;
            // c*(i)(lt) = min_{ls, lb} (w1 + w2 + w3)          (Eq. 14):
            // stage 1 reduces sources per bridge, stage 2 bridges per
            // target.
            stack_min_plus_into(
                &scratch.w1,
                &scratch.pre_s,
                &scratch.run2,
                &mut scratch.mid_values,
                &mut scratch.mid_argmin,
            );
            stack_min_plus_into(
                &scratch.mid_values,
                &scratch.pre_t,
                &scratch.run3,
                &mut scratch.lane_values,
                &mut scratch.lane_argmin,
            );
            scratch.cand_values[ci * l..(ci + 1) * l].copy_from_slice(&scratch.lane_values);
            for (t, &mid) in scratch.lane_argmin.iter().enumerate() {
                scratch.cand_mid[ci * l + t] = mid as u32;
                scratch.cand_src[ci * l + t] = scratch.mid_argmin[mid] as u32;
            }
        }

        // Merge step over all candidates (Eq. 10).
        merge_min_rows(
            &scratch.cand_values,
            l,
            &mut scratch.out_cost,
            &mut scratch.merged_argmin,
        );
        let (out_choice, merged_argmin, cand_src, cand_mid) = (
            &mut scratch.out_choice,
            &scratch.merged_argmin,
            &scratch.cand_src,
            &scratch.cand_mid,
        );
        out_choice.clear();
        out_choice.extend((0..l).map(|lt| {
            let cand = merged_argmin[lt];
            EdgeChoice {
                candidate: cand as u32,
                ls: cand_src[cand * l + lt] as u8,
                lb: cand_mid[cand * l + lt] as u8,
            }
        }));
        let depth = 3
            + 2 * (l.next_power_of_two().trailing_zeros() as usize)
            + (n_pairs.next_power_of_two().trailing_zeros() as usize)
            + self.gather_depth(ps.manhattan_distance(pt) as usize);
        BlockProfile::new(n_pairs * l * l, depth)
    }

    /// Whether the edge `ps -> pt` is routed by the Z/hybrid kernel (its
    /// candidates are bend pairs) rather than the L-shape kernel.
    fn uses_hybrid(&self, ps: Point2, pt: Point2) -> bool {
        match self.mode {
            PatternMode::LShape => false,
            PatternMode::ZShape | PatternMode::HybridAll => true,
            PatternMode::Hybrid(sel) => sel.classify(ps.manhattan_distance(pt)) == NetClass::Medium,
        }
    }

    /// The candidate bend pairs `(Bs, Bt)` of the Z/hybrid flow in
    /// candidate-index order: HVH over every column, then VHV over every
    /// row. All `M + N` hybrid candidates (Section III-F), or in
    /// [`PatternMode::ZShape`] the `M + N - 2` without the two degenerate
    /// L candidates whose target bend is `Pt` (Section III-E).
    fn bend_pairs(&self, ps: Point2, pt: Point2) -> impl Iterator<Item = (Point2, Point2)> {
        let z_only = matches!(self.mode, PatternMode::ZShape);
        let (x0, x1) = (ps.x.min(pt.x), ps.x.max(pt.x));
        let (y0, y1) = (ps.y.min(pt.y), ps.y.max(pt.y));
        let hvh = (x0..=x1)
            .filter(move |&mx| !(z_only && mx == pt.x))
            .map(move |mx| (Point2::new(mx, ps.y), Point2::new(mx, pt.y)));
        let vhv = (y0..=y1)
            .filter(move |&my| !(z_only && my == pt.y))
            .map(move |my| (Point2::new(ps.x, my), Point2::new(pt.x, my)));
        hvh.chain(vhv)
    }

    /// Emits the wire/via geometry of one routed edge choice.
    fn emit_edge(&self, route: &mut Route, ps: Point2, pt: Point2, lt: u8, choice: EdgeChoice) {
        if choice.candidate == CAND_PURE_VIA {
            route.push_via(Via::new(ps, choice.ls, lt));
            return;
        }
        if !self.uses_hybrid(ps, pt) {
            let bend = if choice.candidate == 0 {
                Point2::new(pt.x, ps.y)
            } else {
                Point2::new(ps.x, pt.y)
            };
            if ps != bend {
                route.push_segment(Segment::new(choice.ls, ps, bend));
            }
            route.push_via(Via::new(bend, choice.ls, lt));
            if bend != pt {
                route.push_segment(Segment::new(lt, bend, pt));
            }
        } else {
            let Some((bs, bt)) = self.bend_pairs(ps, pt).nth(choice.candidate as usize) else {
                unreachable!("candidate index {} out of range", choice.candidate);
            };
            if ps != bs {
                route.push_segment(Segment::new(choice.ls, ps, bs));
            }
            route.push_via(Via::new(bs, choice.ls, choice.lb));
            if bs != bt {
                route.push_segment(Segment::new(choice.lb, bs, bt));
            }
            route.push_via(Via::new(bt, choice.lb, lt));
            if bt != pt {
                route.push_segment(Segment::new(lt, bt, pt));
            }
        }
    }
}

/// Via-stack interval enumeration shared by the bottom-children and root
/// reductions: over every interval `[lo, hi]` of `node`'s stack with
/// `lo <= max_lo` and `hi >= max(lo, min_hi)` (`lo = 0` forced at pins,
/// `lo >= 1` elsewhere), the stack cost from the row in `scratch.pre_s`
/// plus each child's cheapest arrival layer inside the interval. Returns the
/// first strict minimum in `lo`-then-`hi` order as `(cost, lo, hi)`, or
/// `(u64::MAX, 0, 0)` when no interval is finite, and copies its child
/// arrival layers to `scratch.layer_arena[lane..]`.
fn best_interval(
    scratch: &mut DpScratch,
    node: &TreeNode,
    l: usize,
    max_lo: u8,
    min_hi: u8,
    lane: usize,
) -> (u64, u8, u8) {
    let children = &node.children;
    let deg = children.len();
    scratch.trial_layers.clear();
    scratch.trial_layers.resize(deg, 0);
    let (lo_first, lo_last) = if node.is_pin {
        (0u8, 0u8)
    } else {
        (1u8, max_lo)
    };
    let mut best = (u64::MAX, 0u8, 0u8);
    for lo in lo_first..=lo_last {
        for hi in lo.max(min_hi)..l as u8 {
            // An off-grid G-cell's row is all `u64::MAX`.
            if scratch.pre_s[hi as usize] == u64::MAX {
                continue;
            }
            let mut total = scratch.pre_s[hi as usize] - scratch.pre_s[lo as usize];
            for (ci, &c) in children.iter().enumerate() {
                let costs = &scratch.edge_cost[c as usize * l..(c as usize + 1) * l];
                let from = lo.max(1) as usize;
                let (mut best_l, mut best_c) = (from, u64::MAX);
                for (cl, &cost) in costs.iter().enumerate().take(hi as usize + 1).skip(from) {
                    if cost < best_c {
                        best_c = cost;
                        best_l = cl;
                    }
                }
                total = total.saturating_add(best_c);
                scratch.trial_layers[ci] = best_l as u8;
            }
            if total < best.0 {
                best = (total, lo, hi);
                scratch.layer_arena[lane..lane + deg].copy_from_slice(&scratch.trial_layers);
            }
        }
    }
    best
}

/// Brute-force reference for tests: enumerate every L-shape combination of
/// one two-pin net with both endpoints pins, no children. Uses the grid's
/// quantised walks — the arithmetic domain the DP's cost sources share —
/// so the comparison is exact.
#[cfg(test)]
fn brute_force_two_pin_l(graph: &GridGraph, ps: Point2, pt: Point2) -> u64 {
    let l = graph.num_layers();
    let mut best = u64::MAX;
    for bend in [Point2::new(pt.x, ps.y), Point2::new(ps.x, pt.y)] {
        for ls in 1..l {
            for lt in 1..l {
                // Pin access: stack 0 -> ls at Ps, 0 -> lt at Pt.
                let c = [
                    graph.via_stack_cost(ps, 0, ls),
                    graph.wire_run_cost(ls, ps, bend),
                    graph.via_stack_cost(bend, ls, lt),
                    graph.wire_run_cost(lt, bend, pt),
                    graph.via_stack_cost(pt, 0, lt),
                ]
                .into_iter()
                .fold(0, u64::saturating_add);
                best = best.min(c);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_design::{Net, NetId, Pin};
    use fastgr_grid::CostParams;
    use fastgr_steiner::SteinerBuilder;
    use proptest::prelude::*;

    fn graph(w: u16, h: u16, layers: u8) -> GridGraph {
        let mut g = GridGraph::new(w, h, layers, CostParams::default()).expect("valid");
        g.fill_capacity(6.0);
        g
    }

    fn net_of(points: &[(u16, u16)]) -> Net {
        Net::new(
            NetId(0),
            "n",
            points
                .iter()
                .map(|&(x, y)| Pin::new(Point2::new(x, y), 0))
                .collect(),
        )
    }

    fn route_with(g: &GridGraph, mode: PatternMode, points: &[(u16, u16)]) -> NetDpResult {
        let tree = SteinerBuilder::new().build(&net_of(points));
        let prober = CostProber::build(g);
        PatternDp::with_prober(g, mode, &prober)
            .route_net(&tree)
            .expect("routable")
    }

    #[test]
    fn two_pin_l_matches_brute_force() {
        let g = graph(16, 16, 5);
        let (ps, pt) = (Point2::new(2, 3), Point2::new(11, 9));
        let r = route_with(&g, PatternMode::LShape, &[(2, 3), (11, 9)]);
        let expect = brute_force_two_pin_l(&g, ps, pt);
        assert_eq!(r.cost, expect, "dp vs brute force");
    }

    #[test]
    fn emitted_route_cost_equals_dp_cost() {
        let g = graph(20, 20, 6);
        for mode in [
            PatternMode::LShape,
            PatternMode::HybridAll,
            PatternMode::ZShape,
            PatternMode::Hybrid(SelectionThresholds::new(2, 100)),
        ] {
            let r = route_with(&g, mode, &[(1, 1), (14, 3), (7, 16), (3, 9)]);
            // The DP prices tree legs independently; normalised geometry
            // costs at most that (equality when no legs overlap). Both are
            // sums of the same per-edge Q44.20 costs.
            let recost = g.route_cost(&r.route);
            assert!(
                recost <= r.cost,
                "{mode:?}: geometry {} costs more than the dp bound {}",
                recost,
                r.cost
            );
            assert!(r.route.is_connected(), "{mode:?}: disconnected route");
        }
    }

    #[test]
    fn straight_two_pin_net_routes_straight() {
        let g = graph(16, 16, 5);
        let r = route_with(&g, PatternMode::LShape, &[(2, 5), (12, 5)]);
        assert_eq!(r.route.wirelength(), 10);
        // One horizontal segment, pin stacks on both ends.
        assert_eq!(r.route.segments().len(), 1);
        assert!(r.route.is_connected());
    }

    #[test]
    fn hybrid_never_costs_more_than_l_shape() {
        let g = graph(24, 24, 5);
        // Congest the two L corridors of a specific net on *every*
        // horizontal layer (M1, M3) so only a Z through a middle row wins.
        let mut blocker = Route::new();
        for layer in [1u8, 3] {
            blocker.push_segment(Segment::new(layer, Point2::new(2, 2), Point2::new(20, 2)));
            blocker.push_segment(Segment::new(layer, Point2::new(2, 18), Point2::new(20, 18)));
        }
        for _ in 0..6 {
            g.commit(&blocker).expect("valid");
        }
        let l = route_with(&g, PatternMode::LShape, &[(2, 2), (20, 18)]);
        let h = route_with(&g, PatternMode::HybridAll, &[(2, 2), (20, 18)]);
        assert!(
            h.cost < l.cost,
            "expected a strictly better Z path than L: {} vs {}",
            h.cost,
            l.cost
        );
    }

    #[test]
    fn selection_routes_small_nets_with_l_kernel() {
        let g = graph(24, 24, 5);
        let sel = SelectionThresholds::new(10, 50);
        // HPWL 4 <= t1: small -> L geometry (single bend).
        let r = route_with(&g, PatternMode::Hybrid(sel), &[(3, 3), (5, 5)]);
        assert!(r.route.segments().len() <= 2);
        assert!(r.route.is_connected());
    }

    #[test]
    fn single_gcell_net_is_free() {
        let g = graph(8, 8, 4);
        let r = route_with(&g, PatternMode::LShape, &[(3, 3)]);
        assert!(r.route.is_empty());
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn multi_pin_net_connects_all_pins() {
        let g = graph(32, 32, 6);
        let pts = [(2, 2), (28, 4), (15, 29), (7, 18), (22, 22)];
        for mode in [PatternMode::LShape, PatternMode::HybridAll] {
            let r = route_with(&g, mode, &pts);
            assert!(r.route.is_connected());
            let touched = r.route.touched_points();
            for &(x, y) in &pts {
                assert!(
                    touched.contains(&Point2::new(x, y).on_layer(0)),
                    "{mode:?}: pin ({x}, {y}) not connected"
                );
            }
        }
    }

    #[test]
    fn congestion_steers_layer_choice() {
        let g = graph(16, 16, 6);
        let quiet = route_with(&g, PatternMode::LShape, &[(1, 8), (14, 8)]);
        // Saturate M1 along the straight row; M3/M5 are the alternatives.
        let mut blocker = Route::new();
        blocker.push_segment(Segment::new(1, Point2::new(0, 8), Point2::new(15, 8)));
        for _ in 0..8 {
            g.commit(&blocker).expect("valid");
        }
        let congested = route_with(&g, PatternMode::LShape, &[(1, 8), (14, 8)]);
        assert!(congested.cost > quiet.cost);
        // The route must avoid M1 now.
        assert!(congested.route.segments().iter().all(|s| s.layer != 1));
    }

    #[test]
    fn profile_grows_with_candidates() {
        let g = graph(32, 32, 6);
        let l = route_with(&g, PatternMode::LShape, &[(1, 1), (25, 20)]);
        let h = route_with(&g, PatternMode::HybridAll, &[(1, 1), (25, 20)]);
        assert!(h.profile.threads > l.profile.threads);
    }

    #[test]
    fn probed_and_direct_engines_agree_exactly() {
        // The prober and the direct walks share the quantised cost domain,
        // so costs and routes are bit-identical — equality, not epsilon.
        // One net on a congested 24×24×6 grid, then on an open 128×128×10
        // grid two-pin nets of span 8–96 and 3-, 8- and 16-pin nets.
        let small = graph(24, 24, 6);
        let mut blocker = Route::new();
        blocker.push_segment(Segment::new(1, Point2::new(0, 8), Point2::new(20, 8)));
        for _ in 0..5 {
            small.commit(&blocker).expect("valid");
        }
        let large = graph(128, 128, 10);
        let mut cases = vec![(&small, vec![(2, 2), (20, 5), (11, 19), (4, 12)])];
        for span in [8u16, 24, 48, 96] {
            cases.push((&large, vec![(1, 1), (span, span / 2)]));
        }
        for pins in [3u16, 8, 16] {
            let pts = (0..pins).map(|t| ((t * 37) % 90 + 1, (t * 53) % 90 + 1));
            cases.push((&large, pts.collect()));
        }
        for (g, pts) in cases {
            let tree = SteinerBuilder::new().build(&net_of(&pts));
            for mode in [
                PatternMode::LShape,
                PatternMode::ZShape,
                PatternMode::HybridAll,
                PatternMode::Hybrid(SelectionThresholds::new(2, 100)),
                PatternMode::Hybrid(SelectionThresholds::new(10, 50)),
            ] {
                let probed = route_with(g, mode, &pts);
                let direct = PatternDp::direct(g, mode)
                    .route_net(&tree)
                    .expect("routable");
                assert_eq!(probed.cost, direct.cost, "{mode:?} {pts:?}: costs diverge");
                assert_eq!(
                    probed.route, direct.route,
                    "{mode:?} {pts:?}: routes diverge"
                );
                assert!(
                    probed.route.is_connected(),
                    "{mode:?} {pts:?}: disconnected"
                );
            }
        }
    }

    #[test]
    fn prober_removes_span_factor_from_modeled_work() {
        // Per-net modeled work of the hybrid kernel: O((M+N)^2 * L^2) when
        // every probe walks its run (direct), O((M+N) * L^2) with the
        // prefix-sum prober. Growing a two-pin net's span 8x must grow the
        // probed work roughly linearly (plus the log-merge term) but the
        // direct work quadratically.
        let g = graph(40, 40, 6);
        let work = |dp: &PatternDp, s: u16| {
            let tree = SteinerBuilder::new().build(&net_of(&[(1, 1), (1 + s, 1 + s)]));
            dp.route_net(&tree).expect("routable").profile.work() as f64
        };
        let prober = CostProber::build(&g);
        let probed = PatternDp::with_prober(&g, PatternMode::HybridAll, &prober);
        let direct = PatternDp::direct(&g, PatternMode::HybridAll);
        let probed_ratio = work(&probed, 32) / work(&probed, 4);
        let direct_ratio = work(&direct, 32) / work(&direct, 4);
        assert!(
            probed_ratio < 12.0,
            "probed work grew superlinearly: {probed_ratio}"
        );
        assert!(
            direct_ratio > 18.0,
            "direct work should keep the span factor: {direct_ratio}"
        );
        assert!(direct_ratio > 2.0 * probed_ratio);
    }

    #[test]
    fn z_shape_excludes_l_candidates() {
        // For an aligned (straight) net the Z set still contains the
        // straight path (mx sweep includes interior columns), so routing
        // must succeed for all modes.
        let g = graph(16, 16, 5);
        for mode in [
            PatternMode::ZShape,
            PatternMode::HybridAll,
            PatternMode::LShape,
        ] {
            let r = route_with(&g, mode, &[(2, 5), (9, 5)]);
            assert!(r.route.is_connected(), "{mode:?} failed on straight net");
        }
    }

    #[test]
    fn scratch_reuse_across_nets_matches_fresh_runs() {
        // One shared scratch and one recycled Route, driven through nets
        // of very different shapes (growing AND shrinking tables), must
        // reproduce what fresh per-call state computes.
        let g = graph(32, 32, 6);
        let mut scratch = DpScratch::new();
        let mut recycled = Route::new();
        let netlists: Vec<Vec<(u16, u16)>> = vec![
            vec![(2, 2), (28, 4), (15, 29), (7, 18), (22, 22)],
            vec![(1, 1), (9, 9)],
            vec![(5, 5)],
            vec![(0, 0), (31, 31), (0, 31), (31, 0)],
            vec![(3, 7), (3, 7), (4, 7)],
        ];
        for mode in [
            PatternMode::LShape,
            PatternMode::HybridAll,
            PatternMode::ZShape,
        ] {
            let prober = CostProber::build(&g);
            let dp = PatternDp::with_prober(&g, mode, &prober);
            for pts in &netlists {
                let tree = SteinerBuilder::new().build(&net_of(pts));
                let shared = dp
                    .route_net_into(&tree, &mut scratch, &mut recycled)
                    .expect("routable");
                let fresh = dp
                    .route_net_into(&tree, &mut DpScratch::new(), &mut Route::new())
                    .expect("routable");
                assert_eq!(shared, fresh, "{mode:?} {pts:?}: summaries diverge");
                let fresh_route = dp.route_net(&tree).expect("routable").route;
                assert_eq!(recycled, fresh_route, "{mode:?} {pts:?}: routes diverge");
            }
        }
    }

    proptest! {
        #[test]
        fn dp_cost_always_matches_emitted_geometry(
            pts in proptest::collection::hash_set((0u16..20, 0u16..20), 2..7),
            mode_pick in 0usize..3
        ) {
            let g = graph(20, 20, 5);
            let mode = [
                PatternMode::LShape,
                PatternMode::HybridAll,
                PatternMode::Hybrid(SelectionThresholds::new(5, 18)),
            ][mode_pick];
            let pts: Vec<(u16, u16)> = pts.into_iter().collect();
            let r = route_with(&g, mode, &pts);
            prop_assert!(r.route.is_connected());
            // DP cost upper-bounds the normalised geometry cost.
            prop_assert!(g.route_cost(&r.route) <= r.cost);
        }

        #[test]
        fn hybrid_is_never_worse_than_l(
            ax in 0u16..24, ay in 0u16..24, bx in 0u16..24, by in 0u16..24
        ) {
            let g = graph(24, 24, 6);
            let pts = [(ax, ay), (bx, by)];
            let l = route_with(&g, PatternMode::LShape, &pts);
            let h = route_with(&g, PatternMode::HybridAll, &pts);
            // The hybrid candidate set is a superset of the L set.
            prop_assert!(h.cost <= l.cost);
        }
    }
}
