//! The simulated device and its calibrated performance model.

use std::sync::OnceLock;

use fastgr_telemetry::{Recorder, Stopwatch, TraceHooks};

use crate::pool::HostPool;

/// Static configuration of the simulated device.
///
/// The defaults are calibrated once from public RTX 3090 specifications and
/// micro-benchmark folklore and are **never tuned per design** — relative
/// speedup shapes in the reproduction come from the algorithms, not from
/// these constants (see `DESIGN.md` §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors executing blocks concurrently.
    pub sm_count: usize,
    /// Threads that one block can run truly in parallel.
    pub threads_per_block: usize,
    /// Modelled time of one flow stage (one add + compare per thread plus
    /// the reduction), in seconds.
    pub stage_seconds: f64,
    /// Fixed host-side cost of one kernel launch, in seconds.
    pub launch_overhead_seconds: f64,
    /// Host worker threads that execute blocks in parallel. `0` means
    /// auto: the `FASTGR_WORKERS` environment variable if set, else the
    /// machine's available parallelism. This affects only *wall-clock*
    /// execution speed; the modelled device time is byte-identical for
    /// every worker count.
    pub host_workers: usize,
}

impl DeviceConfig {
    /// An RTX-3090-like device: 82 SMs, 256-thread blocks (the realistic
    /// occupancy for these register-heavy cost-gather kernels), 900 ns per
    /// flow stage (dozens of clocks at 1.4 GHz including global-memory
    /// latency), 8 µs launch overhead. Host workers are auto-sized.
    pub const fn rtx3090_like() -> Self {
        Self {
            sm_count: 82,
            threads_per_block: 256,
            stage_seconds: 900e-9,
            launch_overhead_seconds: 8e-6,
            host_workers: 0,
        }
    }

    /// A deliberately tiny device for tests: 2 SMs, 4-thread blocks, one
    /// host worker (serial, in-order block execution).
    pub const fn tiny() -> Self {
        Self {
            sm_count: 2,
            threads_per_block: 4,
            stage_seconds: 1e-6,
            launch_overhead_seconds: 10e-6,
            host_workers: 1,
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::rtx3090_like()
    }
}

/// Execution profile reported by one block: how many homogeneous threads its
/// computation-graph flow used and how many sequential stages it has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockProfile {
    /// Parallel threads of the widest flow stage.
    pub threads: usize,
    /// Sequential depth of the flow (number of dependent stages).
    pub flow_depth: usize,
}

impl BlockProfile {
    /// Creates a profile.
    pub const fn new(threads: usize, flow_depth: usize) -> Self {
        Self {
            threads,
            flow_depth,
        }
    }

    /// Merges another profile executed sequentially inside the same block
    /// (depths add, width takes the maximum).
    pub fn then(self, other: BlockProfile) -> BlockProfile {
        BlockProfile {
            threads: self.threads.max(other.threads),
            flow_depth: self.flow_depth + other.flow_depth,
        }
    }

    /// Total modeled work of the block: threads × sequential depth. The
    /// unit the complexity assertions compare across engine variants.
    pub const fn work(self) -> usize {
        self.threads * self.flow_depth
    }
}

/// The simulated CUDA-like device.
///
/// Executes kernels block by block on a host worker pool while charging
/// modelled device time. See the crate docs for the timing model and the
/// example.
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    pool: HostPool,
    recorder: Recorder,
}

impl Device {
    /// Creates a device with the given configuration. The host worker
    /// count is resolved once here (see [`DeviceConfig::host_workers`]).
    /// Telemetry starts disabled; attach a recorder with
    /// [`Device::set_recorder`].
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            config,
            pool: HostPool::resolved(config.host_workers),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a telemetry recorder: every subsequent launch reports one
    /// kernel event, and (when the recorder is enabled) per-block
    /// begin/end events on the executing worker's track.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Launches a kernel of `blocks` blocks. `run_block` is invoked once
    /// per block on the host worker pool — blocks must therefore be
    /// mutually independent, exactly as real CUDA blocks of one kernel are
    /// — and reports the block's flow profile; the modelled kernel time is
    /// the throughput bound of the SM array, floored by the slowest single
    /// block:
    ///
    /// ```text
    /// launch_overhead + max(max_block_time, sum_block_time / sm_count)
    /// block_time = flow_depth * ceil(threads / threads_per_block) * stage_seconds
    /// ```
    ///
    /// Per-block times are reduced in block-index order, so the modelled
    /// seconds (the return value) are byte-identical for every host worker
    /// count. With one worker, blocks run serially in index order on the
    /// calling thread. A zero-block launch costs only the launch overhead.
    ///
    /// Every launch reports one kernel event to the recorder, and each
    /// block a `{name}.block{b}` begin/end pair in category `block` on the
    /// executing worker's track (formatted only when the recorder is
    /// enabled).
    pub fn launch<F>(&mut self, name: &str, blocks: usize, run_block: F) -> f64
    where
        F: Fn(usize) -> BlockProfile + Sync,
    {
        let host_start = Stopwatch::start();
        let threads_per_block = self.config.threads_per_block;
        let stage_seconds = self.config.stage_seconds;
        let prefix = format!("{name}.block");
        let hooks = TraceHooks::new(&self.recorder, &prefix, "block");
        // Index-addressed per-block times: the modelled result never
        // depends on thread interleaving.
        let block_times: Vec<OnceLock<f64>> = (0..blocks).map(|_| OnceLock::new()).collect();
        self.pool.for_each_tapped(
            blocks,
            |b| {
                let profile = run_block(b);
                let waves = profile.threads.div_ceil(threads_per_block).max(1);
                let _ =
                    block_times[b].set(profile.flow_depth as f64 * waves as f64 * stage_seconds);
            },
            &hooks,
        );
        // One reduction in index order (every block ran exactly once, so
        // every cell is set): the floating-point result cannot depend on
        // worker count.
        let mut max_block_time = 0.0f64;
        let mut total_block_time = 0.0f64;
        for &block_time in block_times.iter().filter_map(OnceLock::get) {
            total_block_time += block_time;
            if block_time > max_block_time {
                max_block_time = block_time;
            }
        }
        let modeled_seconds = self.config.launch_overhead_seconds
            + max_block_time.max(total_block_time / self.config.sm_count as f64);
        let host_seconds = host_start.elapsed_seconds();
        self.recorder.kernel(name, blocks, modeled_seconds, host_seconds);
        modeled_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn block_profile_work_is_threads_times_depth() {
        assert_eq!(BlockProfile::new(81, 4).work(), 324);
        // `then` takes the max width and sums depth, so work composes as
        // the merged profile's area, not the sum of the parts.
        let merged = BlockProfile::new(10, 2).then(BlockProfile::new(40, 3));
        assert_eq!(merged.work(), 40 * 5);
    }

    #[test]
    fn zero_block_launch_costs_only_overhead() {
        // Serial device.
        let mut d = Device::new(DeviceConfig::tiny());
        let s = d.launch("noop", 0, |_| BlockProfile::new(1, 1));
        assert_eq!(s, DeviceConfig::tiny().launch_overhead_seconds);
        // Parallel device: same contract regardless of worker count.
        let mut d = Device::new(DeviceConfig {
            host_workers: 4,
            ..DeviceConfig::tiny()
        });
        let s = d.launch("noop", 0, |_| BlockProfile::new(1, 1));
        assert_eq!(s, DeviceConfig::tiny().launch_overhead_seconds);
    }

    #[test]
    fn time_scales_with_block_rounds() {
        let cfg = DeviceConfig::tiny(); // 2 SMs
        let mut d = Device::new(cfg);
        let one = d.launch("k", 2, |_| BlockProfile::new(1, 3));
        let two = d.launch("k", 4, |_| BlockProfile::new(1, 3));
        let body = |launch: f64| launch - cfg.launch_overhead_seconds;
        assert!((body(two) - 2.0 * body(one)).abs() < 1e-12);
    }

    #[test]
    fn wide_blocks_pay_thread_waves() {
        let cfg = DeviceConfig::tiny(); // 4 threads per block
        let mut d = Device::new(cfg);
        let narrow = d.launch("k", 1, |_| BlockProfile::new(4, 2));
        let wide = d.launch("k", 1, |_| BlockProfile::new(8, 2));
        let body = |t: f64| t - cfg.launch_overhead_seconds;
        assert!((body(wide) - 2.0 * body(narrow)).abs() < 1e-12);
    }

    #[test]
    fn slowest_block_dominates() {
        let cfg = DeviceConfig::tiny();
        let mut d = Device::new(cfg);
        let s = d.launch("k", 2, |b| BlockProfile::new(1, if b == 0 { 1 } else { 10 }));
        let body = s - cfg.launch_overhead_seconds;
        assert!((body - 10.0 * cfg.stage_seconds).abs() < 1e-12);
    }

    #[test]
    fn throughput_bound_dominates_for_many_blocks() {
        // 2 SMs, many equal blocks: time ~ total work / 2.
        let cfg = DeviceConfig::tiny();
        let mut d = Device::new(cfg);
        let s = d.launch("k", 10, |_| BlockProfile::new(1, 4));
        let body = s - cfg.launch_overhead_seconds;
        let per_block = 4.0 * cfg.stage_seconds;
        assert!((body - 10.0 * per_block / 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_slow_block_floors_kernel_time() {
        // One enormous block among many small ones: the kernel cannot be
        // faster than that block even with idle SMs.
        let cfg = DeviceConfig::tiny();
        let mut d = Device::new(cfg);
        let s = d.launch("k", 3, |b| BlockProfile::new(1, if b == 0 { 100 } else { 1 }));
        let body = s - cfg.launch_overhead_seconds;
        assert!(body >= 100.0 * cfg.stage_seconds - 1e-12);
    }

    #[test]
    fn block_profile_then_composes() {
        let p = BlockProfile::new(16, 2).then(BlockProfile::new(4, 3));
        assert_eq!(p.threads, 16);
        assert_eq!(p.flow_depth, 5);
    }

    #[test]
    fn blocks_run_in_order_on_host_with_one_worker() {
        // tiny() pins host_workers to 1, so blocks execute serially in
        // index order on the calling thread.
        let mut d = Device::new(DeviceConfig::tiny());
        let seen = Mutex::new(Vec::new());
        d.launch("k", 4, |b| {
            seen.lock().unwrap().push(b);
            BlockProfile::new(1, 1)
        });
        assert_eq!(seen.into_inner().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_launch_runs_every_block_once() {
        let mut d = Device::new(DeviceConfig {
            host_workers: 4,
            ..DeviceConfig::tiny()
        });
        let seen = Mutex::new(vec![0u32; 64]);
        d.launch("k", 64, |b| {
            seen.lock().unwrap()[b] += 1;
            BlockProfile::new(1, 1)
        });
        assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn enabled_recorder_captures_kernels_and_block_events() {
        let recorder = Recorder::enabled();
        let mut d = Device::new(DeviceConfig {
            host_workers: 2,
            ..DeviceConfig::tiny()
        });
        d.set_recorder(recorder.clone());
        let modeled_seconds = d.launch("pattern", 5, |_| BlockProfile::new(1, 2));
        let trace = recorder.take_trace();
        assert_eq!(trace.kernels().len(), 1);
        let k = &trace.kernels()[0];
        assert_eq!(k.name, "pattern");
        assert_eq!(k.blocks, 5);
        assert_eq!(k.modeled_seconds, modeled_seconds);
        // One begin + one end per block, balanced per track.
        let begins = trace.events().iter().filter(|e| e.begin).count();
        let ends = trace.events().iter().filter(|e| !e.begin).count();
        assert_eq!(begins, 5);
        assert_eq!(ends, 5);
        assert!(trace.events().iter().all(|e| e.cat == "block"));
        assert!(trace
            .events()
            .iter()
            .any(|e| e.name == "pattern.block0"));
    }

    #[test]
    fn recorder_does_not_change_modeled_time() {
        let profile = |b: usize| BlockProfile::new(1 + (b * 7) % 13, 1 + (b * 5) % 9);
        let mut plain = Device::new(DeviceConfig {
            host_workers: 2,
            ..DeviceConfig::tiny()
        });
        let mut traced = Device::new(DeviceConfig {
            host_workers: 2,
            ..DeviceConfig::tiny()
        });
        traced.set_recorder(Recorder::enabled());
        let a = plain.launch("k", 97, profile);
        let b = traced.launch("k", 97, profile);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn modeled_seconds_identical_across_worker_counts() {
        // Irregular block shapes so the reduction actually exercises both
        // the max and the accumulating sum.
        let profile = |b: usize| BlockProfile::new(1 + (b * 7) % 13, 1 + (b * 5) % 9);
        let mut serial = Device::new(DeviceConfig {
            host_workers: 1,
            ..DeviceConfig::tiny()
        });
        let mut parallel = Device::new(DeviceConfig {
            host_workers: 8,
            ..DeviceConfig::tiny()
        });
        let a = serial.launch("k", 257, profile);
        let b = parallel.launch("k", 257, profile);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
