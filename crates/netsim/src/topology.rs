//! Declarative network construction.

use sim_core::event::QueueBackend;
use sim_core::time::SimDuration;

use crate::churn::{ChurnSpec, ChurnState, ResolvedRoute};
use crate::fault::{FaultPlan, FaultState};
use crate::flow::{FlowInfo, FlowSpec};
use crate::ids::{FlowId, LinkId, NodeId};
use crate::link::{Link, LinkSpec};
use crate::logic::RouterLogic;
use crate::network::{ExecRole, Network, ShardView};
use crate::trace::Observer;

use std::cell::RefCell;
use std::rc::Rc;

/// Builds a [`Network`] from nodes, links and flows.
///
/// # Example
///
/// ```
/// use netsim::flow::FlowSpec;
/// use netsim::link::LinkSpec;
/// use netsim::logic::ForwardLogic;
/// use netsim::topology::TopologyBuilder;
/// use sim_core::time::{SimDuration, SimTime};
///
/// let mut b = TopologyBuilder::new(1);
/// let a = b.node("a", |_| Box::new(ForwardLogic));
/// let c = b.node("c", |_| Box::new(ForwardLogic));
/// b.link(a, c, LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40));
/// b.flow(FlowSpec::new(vec![a, c], 2).active(SimTime::ZERO, None));
/// let net = b.build();
/// assert_eq!(net.flows().len(), 1);
/// ```
pub struct TopologyBuilder {
    seed: u64,
    names: Vec<String>,
    logics: Vec<Box<dyn RouterLogic>>,
    links: Vec<Link>,
    flow_specs: Vec<FlowSpec>,
    window: SimDuration,
    notify_losses: bool,
    observer: Option<Rc<RefCell<dyn Observer>>>,
    faults: FaultPlan,
    churn: Option<ChurnSpec>,
    queue_backend: QueueBackend,
    shard_view: Option<ShardView>,
}

impl TopologyBuilder {
    /// Creates a builder; `seed` is the experiment seed from which every
    /// component's random stream is derived.
    pub fn new(seed: u64) -> Self {
        TopologyBuilder {
            seed,
            names: Vec::new(),
            logics: Vec::new(),
            links: Vec::new(),
            flow_specs: Vec::new(),
            window: SimDuration::from_secs(1),
            notify_losses: true,
            observer: None,
            faults: FaultPlan::default(),
            churn: None,
            queue_backend: QueueBackend::Wheel,
            shard_view: None,
        }
    }

    /// Restricts the built network to one shard of a partitioned run
    /// (see [`crate::shard`]); the full topology is still constructed,
    /// but only the view's nodes execute.
    pub(crate) fn shard_view(&mut self, view: ShardView) -> &mut Self {
        self.shard_view = Some(view);
        self
    }

    /// The `(src, dst, delay)` of every link plus the node count — the
    /// inputs the shard partitioner needs, exposed without building.
    pub(crate) fn partition_inputs(&self) -> (usize, Vec<(u32, u32, SimDuration)>) {
        let links = self
            .links
            .iter()
            .map(|l| {
                (
                    l.src().index() as u32,
                    l.dst().index() as u32,
                    l.spec().delay,
                )
            })
            .collect();
        (self.names.len(), links)
    }

    /// Adds a node. `factory` receives a seed derived deterministically
    /// from the experiment seed and the node index, and returns the node's
    /// router logic.
    pub fn node(
        &mut self,
        name: &str,
        factory: impl FnOnce(u64) -> Box<dyn RouterLogic>,
    ) -> NodeId {
        let id = NodeId::from_index(self.names.len());
        // Mix the node index into the experiment seed; DetRng whitens
        // further, so a simple affine mix suffices here.
        let component_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.index() as u64 + 1);
        self.names.push(name.to_owned());
        self.logics.push(factory(component_seed));
        id
    }

    /// Adds a directed link from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist.
    pub fn link(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> LinkId {
        assert!(src.index() < self.names.len(), "unknown src node {src}");
        assert!(dst.index() < self.names.len(), "unknown dst node {dst}");
        assert_ne!(src, dst, "self-links are not allowed");
        let id = LinkId::from_index(self.links.len());
        self.links.push(Link::new(src, dst, spec));
        id
    }

    /// Adds a pair of directed links between `a` and `b` with identical
    /// parameters.
    pub fn duplex_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        (self.link(a, b, spec), self.link(b, a, spec))
    }

    /// Adds a flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow's path revisits a node. [`FlowInfo`] keeps one
    /// next-hop entry per node, so a looping path would silently forward
    /// out of whichever hop was written last — reject it here, where the
    /// offending spec is still identifiable.
    pub fn flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = FlowId::from_index(self.flow_specs.len());
        reject_node_revisit(&spec.path, &format!("flow {id}"));
        self.flow_specs.push(spec);
        id
    }

    /// Sets the measurement window for goodput/cumulative series
    /// (default 1 s, matching the paper's plots).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn measurement_window(&mut self, window: SimDuration) -> &mut Self {
        assert!(!window.is_zero(), "measurement window must be positive");
        self.window = window;
        self
    }

    /// Enables or disables loss notifications to the ingress edge
    /// (default enabled; CSFQ sources need them, Corelite ignores them).
    pub fn notify_losses(&mut self, enabled: bool) -> &mut Self {
        self.notify_losses = enabled;
        self
    }

    /// Installs the run's observer (see [`crate::trace`]): it receives
    /// every packet event and every control-plane sample, in simulation
    /// order. Keep a clone of the `Rc` to inspect it after the run.
    pub fn observer(&mut self, observer: Rc<RefCell<dyn Observer>>) -> &mut Self {
        self.observer = Some(observer);
        self
    }

    /// Selects the event-queue backend (default: the timer wheel). The
    /// heap backend is kept for differential testing; both deliver
    /// events in exactly the same order, so simulation results are
    /// byte-identical across backends.
    pub fn queue_backend(&mut self, backend: QueueBackend) -> &mut Self {
        self.queue_backend = backend;
        self
    }

    /// Installs a dynamic flow-churn process (see [`crate::churn`]): the
    /// built network creates and retires flows at runtime, recycling
    /// flow-table slots under generation-counted ids. The churn routes
    /// are resolved against the topology at build time; its random
    /// streams derive from the experiment seed under dedicated labels.
    pub fn churn(&mut self, spec: ChurnSpec) -> &mut Self {
        spec.validate();
        self.churn = Some(spec);
        self
    }

    /// Installs a fault-injection plan (see [`crate::fault`]). The plan's
    /// random streams are derived from the experiment seed under
    /// dedicated labels, so installing faults never perturbs the draws of
    /// other components.
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Resolves paths and produces a runnable [`Network`].
    ///
    /// # Panics
    ///
    /// Panics if a flow path references a missing node or an unconnected
    /// node pair.
    pub fn build(self) -> Network {
        let TopologyBuilder {
            seed,
            names,
            logics,
            links,
            flow_specs,
            window,
            notify_losses,
            observer,
            faults,
            churn,
            queue_backend,
            shard_view,
        } = self;
        let faults = if faults.is_empty() {
            None
        } else {
            Some(FaultState::new(faults, seed, names.len(), links.len()))
        };

        let flows: Vec<FlowInfo> = flow_specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let id = FlowId::from_index(i);
                for &n in &spec.path {
                    assert!(
                        n.index() < names.len(),
                        "flow {id} references unknown node {n}"
                    );
                }
                let hops: Vec<LinkId> = spec
                    .path
                    .windows(2)
                    .map(|pair| {
                        links
                            .iter()
                            .position(|l| l.src() == pair[0] && l.dst() == pair[1])
                            .map(LinkId::from_index)
                            .unwrap_or_else(|| {
                                panic!(
                                    "flow {id}: no link from {} ({}) to {} ({})",
                                    pair[0],
                                    names[pair[0].index()],
                                    pair[1],
                                    names[pair[1].index()]
                                )
                            })
                    })
                    .collect();
                FlowInfo::new(
                    id,
                    spec.weight,
                    spec.packet_size,
                    spec.min_rate,
                    spec.path,
                    hops,
                    spec.activations,
                )
                .with_transport(spec.transport)
            })
            .collect();

        // reverse_delays[f][i] = propagation delay from path[i] back to the
        // ingress (sum of the delays of hops 0..i).
        let reverse_delays: Vec<Vec<SimDuration>> = flows
            .iter()
            .map(|f| {
                let mut acc = SimDuration::ZERO;
                let mut v = Vec::with_capacity(f.path.len());
                v.push(SimDuration::ZERO);
                for &hop in &f.hops {
                    acc += links[hop.index()].spec().delay;
                    v.push(acc);
                }
                v
            })
            .collect();

        // Resolve churn route templates against the topology the same
        // way flow paths are resolved, precomputing the per-route
        // reverse-delay prefix sums reused by every arrival on the route.
        let churn = churn.map(|spec| {
            let routes: Vec<ResolvedRoute> = spec
                .routes
                .iter()
                .map(|path| {
                    reject_node_revisit(path, "churn route");
                    for &n in path {
                        assert!(
                            n.index() < names.len(),
                            "churn route references unknown node {n}"
                        );
                    }
                    let hops: Vec<LinkId> = path
                        .windows(2)
                        .map(|pair| {
                            links
                                .iter()
                                .position(|l| l.src() == pair[0] && l.dst() == pair[1])
                                .map(LinkId::from_index)
                                .unwrap_or_else(|| {
                                    panic!(
                                        "churn route: no link from {} ({}) to {} ({})",
                                        pair[0],
                                        names[pair[0].index()],
                                        pair[1],
                                        names[pair[1].index()]
                                    )
                                })
                        })
                        .collect();
                    let mut acc = SimDuration::ZERO;
                    let mut rds = Vec::with_capacity(path.len());
                    rds.push(SimDuration::ZERO);
                    for &hop in &hops {
                        acc += links[hop.index()].spec().delay;
                        rds.push(acc);
                    }
                    ResolvedRoute {
                        path: path.clone(),
                        hops,
                        reverse_delays: rds,
                    }
                })
                .collect();
            // Sharded runs defer completion metrics into a log replayed in
            // canonical order at merge time (see `ChurnState::retire`).
            ChurnState::new(
                spec,
                routes,
                seed,
                window,
                flows.len(),
                shard_view.is_some(),
            )
        });

        Network::assemble(
            names,
            logics,
            links,
            flows,
            reverse_delays,
            window,
            notify_losses,
            observer,
            faults,
            churn,
            queue_backend,
            match shard_view {
                Some(view) => ExecRole::Shard(view),
                None => ExecRole::Whole,
            },
        )
    }
}

/// Rejects paths that visit any node twice. The per-node `next_hops`
/// table in [`FlowInfo`] is single-valued, so a revisiting path cannot
/// be represented — before this check it was accepted and forwarded out
/// of the *last* hop written for the node, a silent mis-route.
fn reject_node_revisit(path: &[NodeId], what: &str) {
    for (i, &node) in path.iter().enumerate() {
        if let Some(first) = path[..i].iter().position(|&p| p == node) {
            panic!(
                "{what}: path revisits node {node} (positions {first} and {i}); \
                 per-node forwarding state cannot represent looping paths"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::ForwardLogic;
    use sim_core::time::SimTime;

    fn spec() -> LinkSpec {
        LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40)
    }

    #[test]
    fn build_resolves_hops_and_reverse_delays() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        let d = b.node("d", |_| Box::new(ForwardLogic));
        let l0 = b.link(a, c, spec());
        let l1 = b.link(c, d, spec());
        let f = b.flow(FlowSpec::new(vec![a, c, d], 1).active(SimTime::ZERO, None));
        let net = b.build();
        assert_eq!(net.flows()[f.index()].hops, vec![l0, l1]);
        assert_eq!(net.reverse_delay(f, d), SimDuration::from_millis(80));
        assert_eq!(net.reverse_delay(f, c), SimDuration::from_millis(40));
        assert_eq!(net.reverse_delay(f, a), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "no link from")]
    fn unconnected_path_panics() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        b.flow(FlowSpec::new(vec![a, c], 1));
        b.build();
    }

    #[test]
    #[should_panic(expected = "revisits node")]
    fn looping_path_rejected() {
        // Regression: a-c-d-c-e used to build silently, with node c's
        // single next-hop entry overwritten to the c→e hop, so packets
        // skipped d's second visit and took the wrong link.
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        let d = b.node("d", |_| Box::new(ForwardLogic));
        let e = b.node("e", |_| Box::new(ForwardLogic));
        b.link(a, c, spec());
        b.link(c, d, spec());
        b.link(d, c, spec());
        b.link(c, e, spec());
        b.flow(FlowSpec::new(vec![a, c, d, c, e], 1).active(SimTime::ZERO, None));
    }

    #[test]
    #[should_panic(expected = "revisits node")]
    fn looping_churn_route_rejected() {
        use crate::churn::ChurnSpec;
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        b.duplex_link(a, c, spec());
        b.churn(
            ChurnSpec::new(1.0, 10.0, 100.0)
                .route(vec![a, c, a])
                .window(SimTime::ZERO, SimTime::from_secs(1)),
        );
        b.build();
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        b.link(a, a, spec());
    }

    #[test]
    fn duplex_creates_both_directions() {
        let mut b = TopologyBuilder::new(0);
        let a = b.node("a", |_| Box::new(ForwardLogic));
        let c = b.node("c", |_| Box::new(ForwardLogic));
        let (ac, ca) = b.duplex_link(a, c, spec());
        assert_ne!(ac, ca);
    }

    #[test]
    fn node_seeds_differ_per_node() {
        let mut seeds = Vec::new();
        let mut b = TopologyBuilder::new(7);
        b.node("a", |s| {
            seeds.push(s);
            Box::new(ForwardLogic)
        });
        b.node("b", |s| {
            seeds.push(s);
            Box::new(ForwardLogic)
        });
        assert_ne!(seeds[0], seeds[1]);
    }
}
