//! Core topologies, with the paper's Figure-2 chain as the default.
//!
//! The paper evaluates on a chain of four core routers `C1–C2–C3–C4`
//! joined by three 4 Mbps / 40 ms links (the congested links). Every flow
//! enters through its own ingress edge router and leaves through its own
//! egress edge router, each attached by a 4 Mbps / 40 ms access link —
//! matching the paper's per-flow `S_i`/`R_i` routers and its round-trip
//! times (240 ms for one-hop flows, 320 ms for two, 400 ms for three).
//!
//! [`TopologySpec`] generalizes the core network beyond that chain:
//! arbitrary directed core-to-core links, with constructors for chains of
//! any length, the parking-lot configuration, and a small leaf–spine
//! fat-tree. Flows traverse a [`CorePath`] — an explicit ordered list of
//! core routers — of which the paper's [`Route`] is the contiguous-chain
//! special case.

use netsim::link::LinkSpec;
use sim_core::time::SimDuration;

/// Which stretch of the core chain a flow traverses.
///
/// `first_core` and `last_core` index the chain `C1..C4` as `0..4`; the
/// flow crosses the congested links `first_core..last_core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Index of the core router where the flow enters (0 = C1).
    pub first_core: usize,
    /// Index of the core router where the flow exits (must be greater
    /// than `first_core`).
    pub last_core: usize,
}

impl Route {
    /// Number of core routers in the paper's chain.
    pub const CORE_COUNT: usize = 4;

    /// Creates a route entering at core `first_core` and exiting after
    /// core `last_core`.
    ///
    /// # Panics
    ///
    /// Panics unless `first_core < last_core < 4`.
    pub fn new(first_core: usize, last_core: usize) -> Self {
        assert!(
            first_core < last_core && last_core < Self::CORE_COUNT,
            "invalid route: cores {first_core}..{last_core}"
        );
        Route {
            first_core,
            last_core,
        }
    }

    /// Number of congested (core-to-core) links the route crosses.
    pub fn congested_links(&self) -> usize {
        self.last_core - self.first_core
    }

    /// The route of paper flow `i` (1-based) in the 20-flow scenarios
    /// (§4.1/§4.3): flows 1–5 cross C1–C2; 6–8 cross C1–C3; 9–10 cross
    /// C1–C4; 11–12 cross C2–C3; 13–15 cross C2–C4; 16–20 cross C3–C4.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ 20`.
    pub fn of_paper_flow(i: usize) -> Route {
        match i {
            1..=5 => Route::new(0, 1),
            6..=8 => Route::new(0, 2),
            9..=10 => Route::new(0, 3),
            11..=12 => Route::new(1, 2),
            13..=15 => Route::new(1, 3),
            16..=20 => Route::new(2, 3),
            _ => panic!("paper flows are numbered 1..=20, got {i}"),
        }
    }

    /// The rate weight of paper flow `i` (1-based): flows 5 and 15 have
    /// weight 3; flows 1, 11 and 16 weight 1; all others weight 2 (§4.1).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ i ≤ 20`.
    pub fn paper_weight(i: usize) -> u32 {
        match i {
            5 | 15 => 3,
            1 | 11 | 16 => 1,
            2..=20 => 2,
            _ => panic!("paper flows are numbered 1..=20, got {i}"),
        }
    }
}

/// An explicit, ordered list of core routers a flow traverses.
///
/// Consecutive entries must be joined by a link of the scenario's
/// [`TopologySpec`]; the flow crosses every such core-to-core link. The
/// paper's contiguous-chain [`Route`] converts into a `CorePath` via
/// `From`, so chain scenarios keep reading `Route::new(0, 2).into()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorePath(pub Vec<usize>);

impl CorePath {
    /// Creates a path through the given core routers, in traversal order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two cores are given (a flow must cross at
    /// least one core-to-core link to be schedulable).
    pub fn new(cores: Vec<usize>) -> Self {
        assert!(
            cores.len() >= 2,
            "a core path needs at least two routers, got {cores:?}"
        );
        CorePath(cores)
    }

    /// The core router where the flow enters the core network.
    pub fn first(&self) -> usize {
        self.0[0]
    }

    /// The core router where the flow leaves the core network.
    pub fn last(&self) -> usize {
        *self.0.last().expect("paths are non-empty")
    }

    /// Number of core-to-core links crossed.
    pub fn congested_links(&self) -> usize {
        self.0.len() - 1
    }

    /// The indices (into `topology.links`) of the links this path
    /// crosses, in order.
    ///
    /// # Panics
    ///
    /// Panics if a hop of the path is not a link of `topology`.
    pub fn link_indices(&self, topology: &TopologySpec) -> Vec<usize> {
        self.0
            .windows(2)
            .map(|hop| {
                topology.link_index(hop[0], hop[1]).unwrap_or_else(|| {
                    panic!(
                        "path hop {}->{} is not a link of topology `{}`",
                        hop[0], hop[1], topology.name
                    )
                })
            })
            .collect()
    }
}

impl From<Route> for CorePath {
    fn from(route: Route) -> Self {
        CorePath::new((route.first_core..=route.last_core).collect())
    }
}

/// The shape of the core network: how many core routers there are and
/// which directed core-to-core links join them.
///
/// Edge routers are not part of the spec — the runner attaches one
/// ingress and one egress edge per flow, exactly as in the paper's
/// Figure 2 — so the spec only describes the shared, congestible part of
/// the network, plus the parameters every link (core and access) uses.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Display name, used in scenario banners and error messages.
    pub name: &'static str,
    /// Number of core routers, indexed `0..core_count`.
    pub core_count: usize,
    /// Directed core-to-core links as `(src, dst)` core indices.
    pub links: Vec<(usize, usize)>,
    /// Parameters of every link, core and access alike: the paper's
    /// [`paper_link`] by default. The latency/capacity sensitivity
    /// ablations (§4.4 mentions "channels with large latencies") vary it.
    pub link: LinkSpec,
}

impl TopologySpec {
    /// The paper's Figure-2 chain: four cores, three directed links.
    pub fn paper_chain() -> Self {
        TopologySpec {
            name: "paper_chain",
            ..Self::chain(Route::CORE_COUNT)
        }
    }

    /// A left-to-right chain of `n` cores joined by `n - 1` links.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 2`.
    pub fn chain(n: usize) -> Self {
        assert!(n >= 2, "a chain needs at least two cores, got {n}");
        TopologySpec {
            name: "chain",
            core_count: n,
            links: (0..n - 1).map(|i| (i, i + 1)).collect(),
            link: paper_link(),
        }
    }

    /// The parking-lot configuration: a chain of `hops` congested links
    /// (`hops + 1` cores). The characteristic parking-lot *workload* —
    /// one long flow crossing every link plus a one-hop cross flow per
    /// link — is built by [`crate::runner::Scenario::parking_lot`].
    ///
    /// # Panics
    ///
    /// Panics unless `hops >= 1`.
    pub fn parking_lot(hops: usize) -> Self {
        assert!(hops >= 1, "a parking lot needs at least one hop");
        TopologySpec {
            name: "parking_lot",
            ..Self::chain(hops + 1)
        }
    }

    /// A small two-tier leaf–spine fat-tree: four leaf cores (`0..4`)
    /// each joined to two spine cores (`4`, `5`) by a link in each
    /// direction. Paths between leaves are two hops (leaf–spine–leaf) and
    /// the spine chosen determines which links a flow loads — the
    /// genuinely non-chain case for the max-min solver.
    pub fn fat_tree() -> Self {
        TopologySpec {
            name: "fat_tree",
            ..Self::fat_tree_k(Self::FAT_TREE_LEAVES, Self::FAT_TREE_SPINES)
        }
    }

    /// A two-tier leaf–spine fat-tree of arbitrary size: `leaves` leaf
    /// cores (`0..leaves`) each joined to `spines` spine cores
    /// (`leaves..leaves + spines`) by a link in each direction. The k≥8
    /// scaling benchmarks use this to stress wide fan-out; the fixed
    /// [`fat_tree`](Self::fat_tree) is the `4 × 2` instance.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves >= 2` and `spines >= 1`.
    pub fn fat_tree_k(leaves: usize, spines: usize) -> Self {
        assert!(leaves >= 2, "a fat-tree needs at least two leaves");
        assert!(spines >= 1, "a fat-tree needs at least one spine");
        let mut links = Vec::new();
        for leaf in 0..leaves {
            for spine in 0..spines {
                let s = leaves + spine;
                links.push((leaf, s));
                links.push((s, leaf));
            }
        }
        TopologySpec {
            name: "fat_tree_k",
            core_count: leaves + spines,
            links,
            link: paper_link(),
        }
    }

    /// Leaf count of [`TopologySpec::fat_tree`].
    pub const FAT_TREE_LEAVES: usize = 4;
    /// Spine count of [`TopologySpec::fat_tree`].
    pub const FAT_TREE_SPINES: usize = 2;

    /// The leaf–spine–leaf path from `src_leaf` to `dst_leaf` through the
    /// given spine (by spine index, `0..FAT_TREE_SPINES`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range leaves, equal leaves, or spine index.
    pub fn fat_tree_path(src_leaf: usize, dst_leaf: usize, spine: usize) -> CorePath {
        assert!(
            src_leaf < Self::FAT_TREE_LEAVES && dst_leaf < Self::FAT_TREE_LEAVES,
            "fat-tree leaves are 0..{}, got {src_leaf}->{dst_leaf}",
            Self::FAT_TREE_LEAVES
        );
        assert!(src_leaf != dst_leaf, "fat-tree path needs distinct leaves");
        assert!(
            spine < Self::FAT_TREE_SPINES,
            "fat-tree spines are 0..{}, got {spine}",
            Self::FAT_TREE_SPINES
        );
        CorePath::new(vec![src_leaf, Self::FAT_TREE_LEAVES + spine, dst_leaf])
    }

    /// The leaf–spine–leaf path from `src_leaf` to `dst_leaf` through the
    /// given spine on a [`fat_tree_k`](Self::fat_tree_k) with `leaves`
    /// leaves and `spines` spines.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range leaves, equal leaves, or spine index.
    pub fn fat_tree_k_path(
        leaves: usize,
        spines: usize,
        src_leaf: usize,
        dst_leaf: usize,
        spine: usize,
    ) -> CorePath {
        assert!(
            src_leaf < leaves && dst_leaf < leaves,
            "fat-tree leaves are 0..{leaves}, got {src_leaf}->{dst_leaf}"
        );
        assert!(src_leaf != dst_leaf, "fat-tree path needs distinct leaves");
        assert!(
            spine < spines,
            "fat-tree spines are 0..{spines}, got {spine}"
        );
        CorePath::new(vec![src_leaf, leaves + spine, dst_leaf])
    }

    /// Number of core-to-core links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The index of the directed link `src -> dst`, if it exists.
    pub fn link_index(&self, src: usize, dst: usize) -> Option<usize> {
        self.links.iter().position(|&(a, b)| a == src && b == dst)
    }

    /// Whether the topology is the left-to-right chain shape (every link
    /// is `i -> i+1`), which is what the scenario DSL's `route=A-B`
    /// notation can address.
    pub fn is_chain(&self) -> bool {
        self.links.len() == self.core_count - 1
            && self
                .links
                .iter()
                .enumerate()
                .all(|(i, &(a, b))| a == i && b == i + 1)
    }
}

/// Link parameters shared by every link in the paper topology: 4 Mbps,
/// 40 ms propagation, 40-packet tail-drop queue.
pub fn paper_link() -> LinkSpec {
    LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40)
}

/// The paper's link capacity in packets per second at 1 KB packets.
pub const LINK_CAPACITY_PPS: f64 = 500.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_routes_cross_expected_links() {
        assert_eq!(Route::of_paper_flow(1).congested_links(), 1);
        assert_eq!(Route::of_paper_flow(7).congested_links(), 2);
        assert_eq!(Route::of_paper_flow(9).congested_links(), 3);
        assert_eq!(Route::of_paper_flow(11), Route::new(1, 2));
        assert_eq!(Route::of_paper_flow(14), Route::new(1, 3));
        assert_eq!(Route::of_paper_flow(20), Route::new(2, 3));
    }

    #[test]
    fn paper_weights_sum_to_20_per_link() {
        // Every congested link carries total weight 20 (the basis of the
        // paper's 25 pkt/s-per-unit-weight expectation).
        for link in 0..3 {
            let total: u32 = (1..=20)
                .filter(|&i| {
                    let r = Route::of_paper_flow(i);
                    r.first_core <= link && link < r.last_core
                })
                .map(Route::paper_weight)
                .sum();
            assert_eq!(total, 20, "link C{}-C{}", link + 1, link + 2);
        }
    }

    #[test]
    fn paper_link_matches_numbers() {
        let spec = paper_link();
        assert!((spec.service_rate_pps(1000) - LINK_CAPACITY_PPS).abs() < 1e-9);
        assert_eq!(spec.queue_capacity, 40);
    }

    #[test]
    #[should_panic(expected = "invalid route")]
    fn backwards_route_rejected() {
        Route::new(2, 1);
    }

    #[test]
    #[should_panic(expected = "numbered")]
    fn flow_zero_rejected() {
        Route::of_paper_flow(0);
    }

    #[test]
    fn route_converts_to_contiguous_path() {
        let path: CorePath = Route::new(1, 3).into();
        assert_eq!(path.0, vec![1, 2, 3]);
        assert_eq!(path.first(), 1);
        assert_eq!(path.last(), 3);
        assert_eq!(path.congested_links(), 2);
    }

    #[test]
    fn chains_are_chains() {
        assert!(TopologySpec::paper_chain().is_chain());
        assert!(TopologySpec::chain(7).is_chain());
        assert!(TopologySpec::parking_lot(3).is_chain());
        assert!(!TopologySpec::fat_tree().is_chain());
    }

    #[test]
    fn paper_chain_matches_route_geometry() {
        let topo = TopologySpec::paper_chain();
        assert_eq!(topo.core_count, Route::CORE_COUNT);
        assert_eq!(topo.link_count(), Route::CORE_COUNT - 1);
        let path: CorePath = Route::new(0, 3).into();
        assert_eq!(path.link_indices(&topo), vec![0, 1, 2]);
    }

    #[test]
    fn fat_tree_paths_resolve_to_links() {
        let topo = TopologySpec::fat_tree();
        assert_eq!(topo.core_count, 6);
        assert_eq!(topo.link_count(), 16);
        let via0 = TopologySpec::fat_tree_path(0, 3, 0);
        let via1 = TopologySpec::fat_tree_path(0, 3, 1);
        assert_eq!(via0.0, vec![0, 4, 3]);
        assert_eq!(via1.0, vec![0, 5, 3]);
        // Distinct spines load disjoint link sets.
        let l0 = via0.link_indices(&topo);
        let l1 = via1.link_indices(&topo);
        assert!(l0.iter().all(|i| !l1.contains(i)), "{l0:?} vs {l1:?}");
    }

    #[test]
    #[should_panic(expected = "not a link")]
    fn off_topology_path_rejected() {
        let path = CorePath::new(vec![0, 2]);
        path.link_indices(&TopologySpec::paper_chain());
    }
}
