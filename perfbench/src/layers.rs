//! One small adapter per layer: the only place the benchmark calls the
//! program's public API. A change to a layer's API changes one function
//! here.

use std::net::SocketAddr;
use std::sync::Arc;

use slsvr_core::Method;
use vr_image::{Image, Pixel, RunSet};
use vr_serve::{
    ClientError, ClientReceiver, ClientSender, Daemon, DaemonConfig, FrameReply, FrameResponse,
    RenderedFrame, ServeSource, ServiceStats, WireResponse,
};
use vr_system::{Experiment, ExperimentConfig, Outcome};
use vr_volume::{Dataset, DatasetKind};

/// `vr-volume`: build a dataset and its macrocell grid.
pub fn volume_build(kind: DatasetKind, dims: [usize; 3], cell: usize) -> Arc<Dataset> {
    let dataset = Arc::new(Dataset::with_dims(kind, dims));
    if cell >= 1 {
        dataset.macrocell_grid(cell);
    }
    dataset
}

/// `vr-render` via `vr-system`: partition and render every rank's
/// subimage for one view.
pub fn render_prepare(config: &ExperimentConfig, dataset: &Arc<Dataset>) -> Experiment {
    Experiment::prepare_with_dataset(config, Arc::clone(dataset))
}

/// The scalar reference renderer: one thread, one lane, no macrocells.
pub fn render_scalar(config: &ExperimentConfig, dataset: &Arc<Dataset>) -> Experiment {
    let scalar = ExperimentConfig {
        render_threads: 1,
        simd_lanes: 1,
        macrocell: 0,
        ..*config
    };
    render_prepare(&scalar, dataset)
}

/// `slsvr-core`: composite the prepared subimages with `method` and
/// gather the frame.
pub fn composite_run(exp: &Experiment, method: Method) -> Outcome {
    exp.run(method)
}

/// `vr-comm`: start and join a rank group of `p` that does nothing.
pub fn comm_group(p: usize) {
    vr_comm::run_group(p, vr_comm::CostModel::sp2(), |_| ());
}

/// `vr-image`: `back = front over back`.
pub fn image_blend(front: &[Pixel], back: &mut [Pixel]) {
    vr_image::kernel::over_slice(front, back);
}

/// `vr-image`: the non-blank run table of one pixel span.
pub fn image_scan(span: &[Pixel], table: &mut RunSet) {
    table.clear();
    vr_image::kernel::scan_runs_into(span, 0, table);
}

/// `vr-image`: the RLE wire codes of a run table.
pub fn image_rle(table: &RunSet, domain: usize, codes: &mut Vec<u16>) {
    table.encode_codes_into(domain, codes);
}

/// `vr-image`: the frame digest the server and the oracle compare.
pub fn image_hash(img: &Image) -> u64 {
    vr_image::checksum::fnv1a(img)
}

/// `vr-serve`: an in-process daemon on an ephemeral loopback port.
pub fn serve_start(cfg: DaemonConfig) -> Daemon {
    Daemon::start("127.0.0.1:0", cfg).expect("bind loopback daemon")
}

/// `vr-serve`: connect, handshake, and split into send/receive halves.
pub fn serve_connect(addr: SocketAddr) -> Result<(ClientSender, ClientReceiver), ClientError> {
    vr_serve::Client::connect(addr)?.into_split()
}

/// `vr-serve`: submit one frame request; returns its correlation id.
pub fn serve_submit(tx: &mut ClientSender, config: &ExperimentConfig) -> Result<u64, ClientError> {
    tx.submit(config)
}

/// `vr-serve`: block for the next reply.
pub fn serve_recv(rx: &mut ClientReceiver) -> Result<(u64, WireResponse), ClientError> {
    rx.recv_response()
}

/// `vr-serve`: the daemon's merged service counters.
pub fn serve_stats(daemon: &Daemon) -> ServiceStats {
    daemon.router().stats()
}

/// `vr-serve` wire codec: encode then decode one request.
pub fn wire_request_codec(id: u64, config: &ExperimentConfig) -> ExperimentConfig {
    let bytes = vr_serve::wire::encode_request(id, config);
    vr_serve::wire::decode_request(&bytes)
        .expect("request round-trips")
        .1
}

/// `vr-serve` wire codec: encode then decode one frame reply.
pub fn wire_response_codec(id: u64, reply: &FrameResponse) -> WireResponse {
    let bytes = vr_serve::wire::encode_response(id, reply);
    vr_serve::wire::decode_response(&bytes)
        .expect("response round-trips")
        .1
}

/// A server-side frame reply built from a composited outcome, as the
/// service would send it.
pub fn frame_reply(config: &ExperimentConfig, out: &Outcome) -> FrameResponse {
    FrameResponse::Frame(FrameReply {
        frame: Arc::new(RenderedFrame {
            key: vr_serve::frame_key(config),
            image_hash: image_hash(&out.image),
            image: out.image.clone(),
            record: vr_system::FrameRecord::from_outcome(out),
        }),
        source: ServeSource::Fresh,
        wait_seconds: 0.0,
    })
}
