//! The serverless task runner: startup command → application completion.
//!
//! Task completion time (§3.1, §6.6) spans: container startup (including
//! the microVM attach), container application launch (image transfer over
//! virtioFS + process creation), input download through the container's
//! NIC, and the computation itself. With FastIOV's asynchronous VF driver
//! initialization, the launch phase overlaps driver bring-up; the
//! application blocks on network readiness only if it outruns the driver.

use crate::storage::{NetworkedStorage, StorageServer};
use crate::workloads::{Workload, WorkloadOutput};
use crate::{AppError, Result};
use fastiov_engine::{Engine, PodHandle};
use fastiov_hostmem::Gpa;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Cost parameters of the application launch phase.
#[derive(Debug, Clone, Copy)]
pub struct TaskParams {
    /// Container image transferred host→guest over virtioFS at launch.
    pub container_image_bytes: u64,
    /// Process creation CPU work (host side).
    pub app_create_cpu: Duration,
    /// Guest-side application initialization at 0.5 vCPU: image unpack,
    /// interpreter start, imports. Runs on the container's *own* vCPU, so
    /// it is genuinely parallel across containers — this is the window
    /// that masks asynchronous VF driver initialization (§4.2.2: "this
    /// process can span several seconds, which is enough to mask the
    /// initialization time"). Scaled inversely with the vCPU allocation.
    pub app_init_guest: Duration,
    /// vCPUs allocated to the container (0.5 in the default setting).
    pub vcpus: f64,
    /// Data-plane chunk size for downloads.
    pub chunk_bytes: usize,
    /// Real (byte-accurate) chunks pushed through the full data path per
    /// download; the remainder is charged at line rate.
    pub live_chunks: usize,
}

impl TaskParams {
    /// Paper-calibrated defaults (§3.1: 0.5 vCPU, 512 MB).
    pub fn paper() -> Self {
        TaskParams {
            container_image_bytes: 256 * 1024 * 1024,
            app_create_cpu: Duration::from_millis(50),
            app_init_guest: Duration::from_millis(5000),
            vcpus: 0.5,
            chunk_bytes: 64 * 1024,
            live_chunks: 4,
        }
    }
}

/// The measured outcome of one serverless task.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Container index.
    pub index: u32,
    /// Startup-command → application-completion time.
    pub completion: Duration,
    /// The startup portion (engine report total).
    pub startup: Duration,
    /// Input bytes downloaded.
    pub downloaded: u64,
    /// Time spent blocked on network readiness (asynchronous VF driver
    /// initialization not yet complete when the application needed the
    /// NIC).
    pub net_wait: Duration,
    /// Time spent in application launch (image transfer + process
    /// creation).
    pub launch: Duration,
    /// Output of the real computation.
    pub output: WorkloadOutput,
}

/// Launches container `index`, runs `workload` in it, tears it down, and
/// returns the measurement.
pub fn run_serverless_task(
    engine: &Arc<Engine>,
    index: u32,
    workload: &dyn Workload,
    storage: &Arc<StorageServer>,
    params: &TaskParams,
) -> Result<TaskResult> {
    let host = Arc::clone(engine.host());
    // Make sure the storage server sits on the far end of the wire.
    if !host.wire.is_connected() {
        host.wire.connect(NetworkedStorage::new(
            Arc::clone(storage),
            Arc::clone(&host.dma),
        ));
    }
    let clock = host.clock.clone();
    // `run_pod` scopes its own spans to the VM but that scope ends when it
    // returns; re-establish it here so the application phases of the task
    // land on the same timeline row as the startup.
    let _vm_scope = host.tracer.vm_scope(1000 + u64::from(index));
    let t0 = clock.now();

    // Container startup (t_config + t_attach).
    let pod = engine.run_pod(index)?;
    let startup = pod.report.total;

    // Application launch: container image over virtioFS, then process
    // creation. A small head chunk exercises the byte-accurate shared-
    // buffer path (including proactive faults); the tail is charged at
    // the virtioFS data rate.
    let launch_span = host.tracer.span("app.launch");
    let t_launch = clock.now();
    let head = 64 * 1024u64;
    let head_data: Vec<u8> = (0..head).map(|i| (i % 251) as u8).collect();
    pod.vm.virtiofs().add_file("container-image", head_data);
    let app_gpa = pod.vm.layout().app_gpa;
    pod.vm
        .virtiofs()
        .guest_read_to_vec("container-image", app_gpa, head as u32)
        .map_err(|e| AppError::Download(e.to_string()))?;
    host.virtiofs_bw
        .transfer(params.container_image_bytes.saturating_sub(head));
    host.cpu.run(params.app_create_cpu);
    // Guest-side init on the container's own vCPU.
    clock.sleep(Duration::from_secs_f64(
        params.app_init_guest.as_secs_f64() * 0.5 / params.vcpus.max(0.05),
    ));
    let launch = clock.now().duration_since(t_launch);
    launch_span.finish();

    // The application begins by contacting storage: wait for the NIC.
    let net_span = host.tracer.span("app.net-wait");
    let t_net = clock.now();
    pod.vm.wait_net_ready()?;
    let net_wait = clock.now().duration_since(t_net);
    net_span.finish();

    // Download the input through the container's virtual NIC.
    let object = format!("input-{}", workload.name());
    let total = workload.input_bytes();
    if storage.len(&object) != Some(total) {
        storage.put(&object, total, 0x5eed ^ total);
    }
    let sample = {
        let _span = host.tracer.span("app.download");
        download(&host, &pod, storage, &object, total, params)?
    };

    // Compute: the execution time model at the allocated vCPUs covers
    // the computation's cost; the *real* algorithm run happens after the
    // timed window (it exists for output verification, and its host CPU
    // time is no modelled cost).
    {
        let _span = host.tracer.span("app.exec");
        clock.sleep(workload.exec_time(params.vcpus));
    }

    let completion = clock.now().duration_since(t0);
    let output = compute_once(workload, &sample);
    engine.teardown_pod(&pod)?;
    Ok(TaskResult {
        index,
        completion,
        startup,
        downloaded: total,
        net_wait,
        launch,
        output,
    })
}

/// `workload.compute(sample)`, run once per distinct (workload, sample)
/// in the process. Every task of a row downloads the same seeded object,
/// so all but the first get the output from memory; keying by the sample
/// bytes still gives each task the output of its own input. The real
/// computation is pure and sits after the timed window, so this changes
/// no modelled number, only the simulator's CPU time.
fn compute_once(workload: &dyn Workload, sample: &[u8]) -> WorkloadOutput {
    type Memo = HashMap<(&'static str, Vec<u8>), WorkloadOutput>;
    static MEMO: OnceLock<TrackedMutex<Memo>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| TrackedMutex::new(LockClass::AppComputeMemo, HashMap::new()));
    let key = (workload.name(), sample.to_vec());
    if let Some(output) = memo.lock().get(&key) {
        return output.clone();
    }
    let output = workload.compute(sample);
    memo.lock().insert(key, output.clone());
    output
}

/// Runs tasks `0..n` of `workload` at once, one simulation thread each,
/// and returns their results in index order: the serverless counterpart
/// of [`Engine::launch_concurrent`].
pub fn run_serverless_concurrent(
    engine: &Arc<Engine>,
    n: u32,
    workload: Arc<dyn Workload>,
    storage: &Arc<StorageServer>,
    params: &TaskParams,
) -> Vec<Result<TaskResult>> {
    let clock = &engine.host().clock;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let (engine, workload) = (Arc::clone(engine), Arc::clone(&workload));
            let (storage, params) = (Arc::clone(storage), *params);
            fastiov_simtime::spawn(clock, format!("task-{i}"), move || {
                run_serverless_task(&engine, i, workload.as_ref(), &storage, &params)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().unwrap_or(Err(AppError::TaskPanic)))
        .collect()
}

/// Moves `total` bytes of `object` from the storage server into the
/// guest: `live_chunks` byte-accurate chunks through the full DMA (or
/// virtio-net) path, the remainder charged against the shared line rate.
/// Returns the first chunk as the computation sample.
fn download(
    host: &Arc<fastiov_microvm::Host>,
    pod: &PodHandle,
    storage: &Arc<StorageServer>,
    object: &str,
    total: u64,
    params: &TaskParams,
) -> Result<Vec<u8>> {
    let app_gpa = pod.vm.layout().app_gpa;
    let mut sample = Vec::new();
    let mut moved = 0u64;
    for i in 0..params.live_chunks {
        if moved >= total {
            break;
        }
        // SR-IOV frames land in the vendor driver's pre-posted ring
        // buffers, so chunks are packet-sized there; virtio frontends
        // (software CNI and vDPA) use the app buffer directly.
        let use_virtio = pod.vm.virtio_net().is_some();
        let chunk = if use_virtio {
            params.chunk_bytes
        } else {
            host.params.rx_buffer_bytes
        };
        let data = storage
            .chunk(object, moved, chunk)
            .ok_or_else(|| AppError::NoSuchObject(object.to_string()))?;
        if data.is_empty() {
            break;
        }
        let n = data.len();
        if let (Some(net), true) = (pod.vm.virtio_net(), use_virtio) {
            // virtio frontend (software CNI or vDPA).
            net.guest_post_rx(app_gpa, n as u32)
                .map_err(|e| AppError::Download(e.to_string()))?;
            net.host_deliver(&data)
                .map_err(|e| AppError::Download(e.to_string()))?;
            let mut got = vec![0u8; n];
            net.guest_recv(&mut got)
                .map_err(|e| AppError::Download(e.to_string()))?;
            debug_assert_eq!(got, data, "virtio-net delivered bytes intact");
            if i == 0 {
                sample = got;
            }
        } else if let Some(vf) = pod.vm.vf() {
            // SR-IOV path: the guest writes a GET request into its TX
            // buffer, the NIC reads it out through the IOMMU and puts it
            // on the wire; the storage server answers by DMA-delivering
            // the chunk into the next driver ring buffer, which the guest
            // consumes and refills.
            let request = crate::storage::protocol::encode_get(object, moved, chunk as u32);
            pod.vm
                .vm()
                .write_gpa(app_gpa, &request)
                .map_err(|e| AppError::Download(e.to_string()))?;
            host.dma
                .transmit(vf, app_gpa.as_identity_iova(), request.len(), &host.wire)
                .map_err(|e| AppError::Download(e.to_string()))?;
            let c = host
                .dma
                .wait_rx(vf)
                .map_err(|e| AppError::Download(e.to_string()))?;
            let mut got = vec![0u8; c.written];
            pod.vm
                .vm()
                .read_gpa(Gpa(c.buffer.iova.raw()), &mut got)
                .map_err(|e| AppError::Download(e.to_string()))?;
            debug_assert_eq!(got, data, "DMA delivered bytes intact");
            // Refill the consumed slot.
            host.dma
                .post_rx_buffer(vf, c.buffer.iova, c.buffer.len)
                .map_err(|e| AppError::Download(e.to_string()))?;
            if i == 0 {
                sample = got;
            }
        } else {
            return Err(AppError::Download("pod has no NIC".into()));
        }
        moved += n as u64;
    }
    // Remainder at the shared data-plane rate: SR-IOV and vDPA ride the
    // NIC line; the software CNI rides the emulated path.
    let rest = total.saturating_sub(moved);
    if rest > 0 {
        if pod.vm.vf().is_some() {
            host.dma.line().transfer(rest);
        } else {
            host.sw_net_bw.transfer(rest);
        }
    }
    Ok(sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::AppKind;
    use fastiov_cni::{FastIovCni, IpvtapCni, SriovCniFixed, VfAllocator};
    use fastiov_engine::{EngineParams, PodNetworking, VmOptions};
    use fastiov_hostmem::addr::units::mib;
    use fastiov_microvm::{Host, HostParams};
    use fastiov_vfio::LockPolicy;

    fn engine(fast: bool) -> Arc<Engine> {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        host.prebind_all_vfs().unwrap();
        let vfs = VfAllocator::new(host.pf.vf_count() as u16);
        let (plugin, opts): (Arc<dyn fastiov_cni::CniPlugin>, VmOptions) = if fast {
            (
                Arc::new(FastIovCni::new(vfs)),
                VmOptions::fastiov(mib(64), mib(32)),
            )
        } else {
            (
                Arc::new(SriovCniFixed::new(vfs)),
                VmOptions::vanilla(mib(64), mib(32)),
            )
        };
        Engine::new(
            host,
            EngineParams::paper(),
            PodNetworking::Sriov(plugin),
            opts,
        )
    }

    fn small_params() -> TaskParams {
        TaskParams {
            container_image_bytes: 1024 * 1024,
            ..TaskParams::paper()
        }
    }

    #[test]
    fn image_task_end_to_end_fastiov() {
        let engine = engine(true);
        let storage = Arc::new(StorageServer::new());
        let w = AppKind::Image.workload();
        let r = run_serverless_task(&engine, 0, w.as_ref(), &storage, &small_params()).unwrap();
        assert!(r.completion >= r.startup);
        assert_eq!(r.downloaded, w.input_bytes());
        assert!(matches!(r.output, WorkloadOutput::Thumbnail(_)));
    }

    #[test]
    fn compression_task_end_to_end_vanilla() {
        let engine = engine(false);
        let storage = Arc::new(StorageServer::new());
        let w = AppKind::Compression.workload();
        let r = run_serverless_task(&engine, 0, w.as_ref(), &storage, &small_params()).unwrap();
        match r.output {
            WorkloadOutput::Compressed {
                compressed,
                original,
            } => assert!(compressed < original, "text-like input must compress"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_tasks_match_a_single_task_and_keep_the_clock_virtual() {
        let storage = Arc::new(StorageServer::new());
        let workload: Arc<dyn Workload> = AppKind::Image.workload().into();
        let single = run_serverless_task(
            &engine(true),
            0,
            workload.as_ref(),
            &storage,
            &small_params(),
        )
        .unwrap();
        let engine = engine(true);
        let results = run_serverless_concurrent(&engine, 8, workload, &storage, &small_params());
        assert_eq!(results.len(), 8);
        for (i, r) in results.into_iter().enumerate() {
            let r = r.unwrap();
            assert_eq!(r.index, i as u32);
            assert_eq!(r.output, single.output, "task {i}");
        }
        assert!(engine.host().clock.is_virtual());
    }

    #[test]
    fn compute_once_gives_each_sample_its_own_output() {
        let w = AppKind::Compression.workload();
        let a: Vec<u8> = (0..4096u32).map(|i| (i % 7) as u8).collect();
        let b: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        assert_ne!(w.compute(&a), w.compute(&b));
        for sample in [&a, &b, &a] {
            assert_eq!(compute_once(w.as_ref(), sample), w.compute(sample));
        }
    }

    #[test]
    fn software_cni_task_end_to_end() {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Coarse).unwrap();
        let engine = Engine::new(
            host,
            EngineParams::paper(),
            PodNetworking::Software(Arc::new(IpvtapCni::new(fastiov_cni::CniParams::paper()))),
            VmOptions::vanilla(mib(64), mib(32)),
        );
        let storage = Arc::new(StorageServer::new());
        let w = AppKind::Scientific.workload();
        let r = run_serverless_task(&engine, 0, w.as_ref(), &storage, &small_params()).unwrap();
        assert!(matches!(
            r.output,
            WorkloadOutput::Traversal {
                visited: 10_000,
                ..
            }
        ));
    }
}
