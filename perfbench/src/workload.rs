//! The benchmark's workloads: a design shape plus a router preset.

use fastgr_core::RouterConfig;
use fastgr_design::{BenchmarkSpec, Design, Net, NetId, Pin, SplitMix64};
use fastgr_grid::{Point2, Rect};

/// One workload.
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Suite benchmark the design is derived from.
    pub shape: &'static str,
    /// The router preset.
    pub config: fn() -> RouterConfig,
    /// Whether repeated runs must give byte-identical routes.
    pub deterministic: bool,
}

/// Every workload. `congested-cugr` routes the `congested-l` design.
pub const WORKLOADS: [Workload; 3] = [
    // 22,400 nets, 140x140, 5 metal layers: RRR maze tasks on the
    // task-graph executor take about half the wall-clock.
    Workload {
        name: "congested-l",
        shape: "s19t9m",
        config: RouterConfig::fastgr_l,
        // Concurrent maze tasks read each other's in-flight commits.
        deterministic: false,
    },
    // The same netlist with 9 metal layers: the hybrid pattern kernels
    // dominate and RRR is under 1% of the time.
    Workload {
        name: "open-h",
        shape: "s19t9",
        config: RouterConfig::fastgr_h,
        deterministic: true,
    },
    // The congested design under the CUGR baseline: sequential pattern
    // routing with a prober refresh per net, batch-barrier RRR run
    // serially.
    Workload {
        name: "congested-cugr",
        shape: "s19t9m",
        config: RouterConfig::cugr,
        deterministic: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The design of this workload for `seed`, as design-format text: the
    /// only input the router receives.
    ///
    /// The seed does not regenerate the netlist: hotspot and blockage
    /// placement would then change congestion, and with it the run time,
    /// several-fold between seeds. It picks one of the four mirror images
    /// of the suite design and a random net order instead, which gives
    /// distinct inputs and distinct routes of the same difficulty.
    pub fn design_text(&self, seed: u64) -> String {
        let spec = BenchmarkSpec::find(self.shape).expect("workload shapes are suite benchmarks");
        variant(&spec.generate(), seed).to_text()
    }
}

/// `base` mirrored in x if bit 0 of `seed` is set and in y if bit 1 is,
/// with its nets shuffled by a generator seeded with `seed`.
fn variant(base: &Design, seed: u64) -> Design {
    let (w, h) = (base.width(), base.height());
    let (flip_x, flip_y) = (seed & 1 == 1, seed & 2 == 2);
    let mirror = |p: Point2| {
        Point2::new(
            if flip_x { w - 1 - p.x } else { p.x },
            if flip_y { h - 1 - p.y } else { p.y },
        )
    };
    let blockages = base
        .blockages()
        .iter()
        .map(|&b| {
            let mut b = b;
            b.region =
                Rect::bounding([mirror(b.region.lo), mirror(b.region.hi)]).expect("two corners");
            b
        })
        .collect();
    let mut order: Vec<usize> = (0..base.nets().len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let nets = order
        .iter()
        .enumerate()
        .map(|(id, &old)| {
            let pins = base.nets()[old]
                .pins()
                .iter()
                .map(|p| Pin::new(mirror(p.position), p.layer))
                .collect();
            Net::new(NetId(id as u32), format!("net{id}"), pins)
        })
        .collect();
    Design::new(
        format!("{}-v{seed}", base.name()),
        w,
        h,
        base.layers(),
        base.capacity(),
        blockages,
        nets,
    )
}
