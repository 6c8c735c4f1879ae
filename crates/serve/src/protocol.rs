//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Hand-rolled because the workspace is offline — no serialization framework,
//! no protobuf.  The shape is deliberately boring:
//!
//! ```text
//! +-------+---------+-----------+-------------+----------------------+
//! | magic | version | frame type| payload len | payload (len bytes)  |
//! | APSV  | u16 LE  | u16 LE    | u32 LE      |                      |
//! +-------+---------+-----------+-------------+----------------------+
//! ```
//!
//! Every multi-byte integer is little-endian; every `f64` travels as its raw
//! IEEE-754 bits, so predictions cross the wire **exactly** — the protocol
//! round-trip is bit-lossless (pinned by proptests in `tests/protocol.rs`).
//!
//! # Framing discipline
//!
//! [`read_frame`] distinguishes *fatal* stream corruption from *recoverable*
//! bad requests, and [`WireError::is_fatal`] encodes the policy:
//!
//! * Bad magic, an oversized declared length, a mid-frame EOF or an I/O error
//!   mean the stream can no longer be trusted to be frame-aligned — the
//!   server answers an [`ErrorCode::BadFrame`] error frame where possible and
//!   closes the connection.
//! * A wrong version or a well-framed payload that fails to parse
//!   ([`WireError::Malformed`]) is consumed in full, so the stream stays
//!   aligned: the server answers an error frame and the connection remains
//!   usable.  Never a panic, never a hang.
//!
//! Responses re-derive every [`Prediction`] total through the same
//! constructors the models use ([`Prediction::grouped`] sums the groups,
//! [`Prediction::per_component`] folds the breakdown), so a decoded
//! prediction is not merely close to the served one — it is the same value,
//! bit for bit.

use autopower::{ComponentBreakdown, ComponentPower, ModelKind, Prediction, Resolution};
use autopower_config::{
    Component, ConfigId, CpuConfig, HardwareParams, Workload, SEED_CONFIG_COUNT,
};
use autopower_powersim::PowerGroups;
use std::io::{Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"APSV";

/// Protocol version; bumped on any layout change so a stale peer fails
/// loudly instead of decoding garbage.
pub const PROTOCOL_VERSION: u16 = 1;

/// Bytes of the fixed header (magic + version + frame type + payload length).
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame's declared payload length.  A per-component
/// response for [`MAX_POINTS`] points is ~3.7 MiB; anything past this bound
/// is a corrupt or hostile length field, not a real frame.
pub const MAX_PAYLOAD: u32 = 8 * 1024 * 1024;

/// Upper bound on `configs × workloads` per predict request — bounds both
/// the response payload and the scoring work a single frame can demand.
pub const MAX_POINTS: usize = 4096;

/// Upper bound on configurations per predict request.
pub const MAX_CONFIGS: usize = 4096;

/// Upper bound on workloads per predict request (repeats allowed, as in the
/// offline sweep).
pub const MAX_WORKLOADS: usize = 64;

/// Upper bound on an error frame's message, in bytes.
pub const MAX_ERROR_MESSAGE: usize = 1024;

/// Upper bound on hardware-parameter values accepted off the wire.  The BOOM
/// design space tops out orders of magnitude below this; the bound only
/// rejects nonsense (zero-width pipelines, 4-billion-entry ROBs) before it
/// reaches the simulator.
pub const MAX_PARAM_VALUE: u32 = 1 << 20;

/// One scored point of a predict response: the typed prediction plus the
/// simulated IPC — the same payload as an offline
/// [`SweepPoint`](autopower::SweepPoint), minus the echoed config/workload
/// (the client knows its own request order).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedPoint {
    /// The typed power prediction (total + whatever structure the model
    /// resolves), bit-identical to the offline sweep's.
    pub power: Prediction,
    /// Simulated instructions per cycle.
    pub ipc: f64,
}

/// What an `Info` request answers: the loaded models and the serving knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerInfo {
    /// Registry kinds loaded and servable, in load order.
    pub kinds: Vec<ModelKind>,
    /// Scoring worker threads.
    pub workers: u32,
    /// Max points merged into one scoring batch.
    pub max_batch: u32,
    /// Batching window in microseconds (0 = dispatch immediately).
    pub max_wait_us: u64,
}

/// What a `Ping` request answers: an instantaneous health snapshot, so load
/// and saturation are observable in-band without a side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHealth {
    /// Points sitting in the job queue, not yet dispatched to a worker.
    pub queued_points: u64,
    /// Points dispatched to workers and not yet answered.
    pub in_flight_points: u64,
    /// Scoring worker threads.
    pub workers: u32,
    /// The load-shedding bound: queued points are capped here (`0` =
    /// unbounded); past it predict requests are refused with
    /// [`ErrorCode::Overloaded`].
    pub max_queue: u64,
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame itself was malformed (bad framing, bad payload,
    /// unknown frame type, or a response-type frame sent to the server).
    BadFrame,
    /// The requested model kind is not loaded on this server.
    UnknownModel,
    /// A hot reload failed; the previous models keep serving.
    ReloadFailed,
    /// The server is draining and no longer accepts predict requests.
    Draining,
    /// The server failed internally while scoring the request.
    Internal,
    /// The job queue hit its `--max-queue` bound; the request was shed
    /// instead of queued.  Retry with backoff.
    Overloaded,
}

impl ErrorCode {
    /// The stable wire value.
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::UnknownModel => 2,
            ErrorCode::ReloadFailed => 3,
            ErrorCode::Draining => 4,
            ErrorCode::Internal => 5,
            ErrorCode::Overloaded => 6,
        }
    }

    /// Inverse of [`ErrorCode::code`].
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::UnknownModel),
            3 => Some(ErrorCode::ReloadFailed),
            4 => Some(ErrorCode::Draining),
            5 => Some(ErrorCode::Internal),
            6 => Some(ErrorCode::Overloaded),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::ReloadFailed => "reload-failed",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
            ErrorCode::Overloaded => "overloaded",
        };
        f.write_str(name)
    }
}

/// Every frame either peer can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: score `configs × workloads` under the named model.
    PredictRequest {
        /// The registry model to score under.
        kind: ModelKind,
        /// Configurations to score, `1..=MAX_CONFIGS`.
        configs: Vec<CpuConfig>,
        /// Workloads per configuration, `1..=MAX_WORKLOADS`.
        workloads: Vec<Workload>,
    },
    /// Server → client: one [`ServedPoint`] per requested pair,
    /// configuration-major in request order.
    PredictResponse {
        /// The scored points.
        points: Vec<ServedPoint>,
    },
    /// Server → client: a typed refusal.
    Error {
        /// What went wrong, as a stable code.
        code: ErrorCode,
        /// Human-readable detail, at most [`MAX_ERROR_MESSAGE`] bytes.
        message: String,
    },
    /// Client → server: describe yourself.
    Info,
    /// Server → client: answer to [`Frame::Info`].
    InfoResponse(ServerInfo),
    /// Client → server: re-read every model file from disk and swap the set
    /// atomically (all-or-nothing; in-flight requests finish on the old set).
    Reload,
    /// Server → client: the reload succeeded; these kinds now serve.
    ReloadResponse {
        /// Registry kinds of the freshly loaded set, in load order.
        kinds: Vec<ModelKind>,
    },
    /// Client → server: drain and exit — finish in-flight work, answer this
    /// with [`Frame::ShutdownResponse`], stop accepting, exit cleanly.
    Shutdown,
    /// Server → client: drain acknowledged.
    ShutdownResponse,
    /// Client → server: health check — answered instantly, never queued.
    Ping,
    /// Server → client: answer to [`Frame::Ping`].
    PingResponse(ServerHealth),
}

impl Frame {
    /// The stable wire value of the frame type.
    fn type_code(&self) -> u16 {
        match self {
            Frame::PredictRequest { .. } => 1,
            Frame::PredictResponse { .. } => 2,
            Frame::Error { .. } => 3,
            Frame::Info => 4,
            Frame::InfoResponse(_) => 5,
            Frame::Reload => 6,
            Frame::ReloadResponse { .. } => 7,
            Frame::Shutdown => 8,
            Frame::ShutdownResponse => 9,
            Frame::Ping => 10,
            Frame::PingResponse(_) => 11,
        }
    }
}

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The stream ended mid-frame.
    Truncated,
    /// The frame did not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame declared a protocol version this build does not speak.
    /// Recoverable: the payload was drained, the stream is still aligned.
    BadVersion(u16),
    /// The frame declared a payload longer than [`MAX_PAYLOAD`].
    Oversized(u32),
    /// A well-framed payload that does not parse.  Recoverable: the payload
    /// was consumed in full, the stream is still aligned.
    Malformed(String),
}

impl WireError {
    /// Whether the stream can no longer be trusted to be frame-aligned
    /// (close the connection) or the next frame can still be read (answer an
    /// error frame and continue).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, WireError::Malformed(_) | WireError::BadVersion(_))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "stream I/O failed: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02x?}"),
            WireError::BadVersion(v) => write!(
                f,
                "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
            ),
            WireError::Oversized(len) => write!(
                f,
                "declared payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
            ),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// --- encoding --------------------------------------------------------------

/// Byte-buffer writer for payloads; everything little-endian.
#[derive(Default)]
struct Enc {
    bytes: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    /// Raw IEEE-754 bits — the exactness of the whole protocol rests here.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Length-prefixed UTF-8 (u16 length).
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.bytes.extend_from_slice(s.as_bytes());
    }
    fn groups(&mut self, g: &PowerGroups) {
        self.f64(g.clock);
        self.f64(g.sram);
        self.f64(g.register);
        self.f64(g.combinational);
    }
    fn config(&mut self, config: &CpuConfig) {
        match config.id.generated_index() {
            Some(n) => {
                self.u8(1);
                self.u32(n);
            }
            None => {
                self.u8(0);
                self.u32(config.id.index());
            }
        }
        for &v in config.params.values() {
            self.u32(v);
        }
    }
    fn prediction(&mut self, p: &Prediction) {
        match p.resolution() {
            Resolution::TotalOnly => {
                self.u8(0);
                self.f64(p.total());
            }
            Resolution::Grouped(groups) => {
                self.u8(1);
                self.groups(groups);
            }
            Resolution::PerComponent(breakdown) => {
                self.u8(2);
                self.u8(Component::ALL.len() as u8);
                for (_, entry) in breakdown.iter() {
                    match &entry.groups {
                        Some(groups) => {
                            self.u8(1);
                            self.f64(entry.total);
                            self.groups(groups);
                        }
                        None => {
                            self.u8(0);
                            self.f64(entry.total);
                        }
                    }
                }
            }
        }
    }
}

/// Encodes a frame — header and payload — into one byte vector.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Enc::default();
    match frame {
        Frame::PredictRequest {
            kind,
            configs,
            workloads,
        } => {
            payload.str(kind.registry_name());
            payload.u16(workloads.len() as u16);
            payload.u32(configs.len() as u32);
            for &w in workloads {
                payload.u8(w.index() as u8);
            }
            for config in configs {
                payload.config(config);
            }
        }
        Frame::PredictResponse { points } => {
            payload.u32(points.len() as u32);
            for point in points {
                payload.f64(point.ipc);
                payload.prediction(&point.power);
            }
        }
        Frame::Error { code, message } => {
            payload.u16(code.code());
            payload.str(message);
        }
        Frame::Info | Frame::Reload | Frame::Shutdown | Frame::ShutdownResponse | Frame::Ping => {}
        Frame::PingResponse(health) => {
            payload.u64(health.queued_points);
            payload.u64(health.in_flight_points);
            payload.u32(health.workers);
            payload.u64(health.max_queue);
        }
        Frame::InfoResponse(info) => {
            payload.u16(info.kinds.len() as u16);
            for kind in &info.kinds {
                payload.str(kind.registry_name());
            }
            payload.u32(info.workers);
            payload.u32(info.max_batch);
            payload.u64(info.max_wait_us);
        }
        Frame::ReloadResponse { kinds } => {
            payload.u16(kinds.len() as u16);
            for kind in kinds {
                payload.str(kind.registry_name());
            }
        }
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.bytes.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.extend_from_slice(&frame.type_code().to_le_bytes());
    out.extend_from_slice(&(payload.bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload.bytes);
    out
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// Propagates the stream's I/O error.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

// --- decoding --------------------------------------------------------------

/// Bounds-checked little-endian cursor over a received payload.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(WireError::Malformed(format!(
                "payload ends inside {what} (need {n} bytes at offset {}, have {})",
                self.pos,
                self.bytes.len() - self.pos
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<&'a str, WireError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed(format!("{what} is not valid UTF-8")))
    }

    fn kind(&mut self, what: &str) -> Result<ModelKind, WireError> {
        let name = self.str(what)?;
        name.parse::<ModelKind>()
            .map_err(|e| WireError::Malformed(format!("{what}: {e}")))
    }

    fn groups(&mut self, what: &str) -> Result<PowerGroups, WireError> {
        Ok(PowerGroups {
            clock: self.f64(what)?,
            sram: self.f64(what)?,
            register: self.f64(what)?,
            combinational: self.f64(what)?,
        })
    }

    fn config(&mut self) -> Result<CpuConfig, WireError> {
        let tag = self.u8("config id kind")?;
        let index = self.u32("config id")?;
        let id = match tag {
            0 => {
                let n = u8::try_from(index)
                    .ok()
                    .filter(|&n| (1..=SEED_CONFIG_COUNT as u8).contains(&n))
                    .ok_or_else(|| {
                        WireError::Malformed(format!("seed config index {index} out of range"))
                    })?;
                ConfigId::new(n)
            }
            1 => {
                if index == 0 || index >= u32::MAX - SEED_CONFIG_COUNT {
                    return Err(WireError::Malformed(format!(
                        "generated config index {index} out of range"
                    )));
                }
                ConfigId::generated(index)
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown config id tag {other}"
                )))
            }
        };
        let mut values = [0u32; 14];
        for slot in &mut values {
            let v = self.u32("config parameter")?;
            if v == 0 || v > MAX_PARAM_VALUE {
                return Err(WireError::Malformed(format!(
                    "config parameter value {v} out of range (1..={MAX_PARAM_VALUE})"
                )));
            }
            *slot = v;
        }
        Ok(CpuConfig::new(id, HardwareParams::new(values)))
    }

    fn prediction(&mut self) -> Result<Prediction, WireError> {
        match self.u8("prediction tag")? {
            0 => Ok(Prediction::total_only(self.f64("total")?)),
            1 => Ok(Prediction::grouped(self.groups("group values")?)),
            2 => {
                let count = self.u8("component count")? as usize;
                if count != Component::ALL.len() {
                    return Err(WireError::Malformed(format!(
                        "breakdown carries {count} components, expected {}",
                        Component::ALL.len()
                    )));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let has_groups = match self.u8("component flags")? {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(WireError::Malformed(format!(
                                "unknown component flags {other}"
                            )))
                        }
                    };
                    let total = self.f64("component total")?;
                    let groups = if has_groups {
                        Some(self.groups("component groups")?)
                    } else {
                        None
                    };
                    entries.push(ComponentPower { total, groups });
                }
                Ok(Prediction::per_component(ComponentBreakdown::new(entries)))
            }
            other => Err(WireError::Malformed(format!(
                "unknown prediction tag {other}"
            ))),
        }
    }

    /// Rejects trailing bytes: a frame that parses but carries extra payload
    /// is a peer disagreement, not something to silently ignore.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing byte(s) after the payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// Decodes a payload whose framing (type + length) was already validated.
fn decode_payload(type_code: u16, payload: &[u8]) -> Result<Frame, WireError> {
    let mut d = Dec::new(payload);
    let frame = match type_code {
        1 => {
            let kind = d.kind("model kind")?;
            let n_workloads = d.u16("workload count")? as usize;
            let n_configs = d.u32("config count")? as usize;
            if n_workloads == 0 || n_workloads > MAX_WORKLOADS {
                return Err(WireError::Malformed(format!(
                    "workload count {n_workloads} out of range (1..={MAX_WORKLOADS})"
                )));
            }
            if n_configs == 0 || n_configs > MAX_CONFIGS {
                return Err(WireError::Malformed(format!(
                    "config count {n_configs} out of range (1..={MAX_CONFIGS})"
                )));
            }
            if n_configs * n_workloads > MAX_POINTS {
                return Err(WireError::Malformed(format!(
                    "{n_configs} configs x {n_workloads} workloads exceeds the \
                     {MAX_POINTS}-point limit"
                )));
            }
            let mut workloads = Vec::with_capacity(n_workloads);
            for _ in 0..n_workloads {
                let index = d.u8("workload index")? as usize;
                let workload = Workload::ALL.get(index).copied().ok_or_else(|| {
                    WireError::Malformed(format!("unknown workload index {index}"))
                })?;
                workloads.push(workload);
            }
            let mut configs = Vec::with_capacity(n_configs);
            for _ in 0..n_configs {
                configs.push(d.config()?);
            }
            Frame::PredictRequest {
                kind,
                configs,
                workloads,
            }
        }
        2 => {
            let n = d.u32("point count")? as usize;
            if n > MAX_POINTS {
                return Err(WireError::Malformed(format!(
                    "point count {n} exceeds the {MAX_POINTS}-point limit"
                )));
            }
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let ipc = d.f64("point ipc")?;
                let power = d.prediction()?;
                points.push(ServedPoint { power, ipc });
            }
            Frame::PredictResponse { points }
        }
        3 => {
            let raw = d.u16("error code")?;
            let code = ErrorCode::from_code(raw)
                .ok_or_else(|| WireError::Malformed(format!("unknown error code {raw}")))?;
            let message = d.str("error message")?;
            if message.len() > MAX_ERROR_MESSAGE {
                return Err(WireError::Malformed(format!(
                    "error message of {} bytes exceeds the {MAX_ERROR_MESSAGE}-byte limit",
                    message.len()
                )));
            }
            Frame::Error {
                code,
                message: message.to_owned(),
            }
        }
        4 => Frame::Info,
        5 => {
            let n = d.u16("kind count")? as usize;
            let mut kinds = Vec::with_capacity(n.min(ModelKind::ALL.len()));
            for _ in 0..n {
                kinds.push(d.kind("model kind")?);
            }
            Frame::InfoResponse(ServerInfo {
                kinds,
                workers: d.u32("worker count")?,
                max_batch: d.u32("max batch")?,
                max_wait_us: d.u64("max wait")?,
            })
        }
        6 => Frame::Reload,
        7 => {
            let n = d.u16("kind count")? as usize;
            let mut kinds = Vec::with_capacity(n.min(ModelKind::ALL.len()));
            for _ in 0..n {
                kinds.push(d.kind("model kind")?);
            }
            Frame::ReloadResponse { kinds }
        }
        8 => Frame::Shutdown,
        9 => Frame::ShutdownResponse,
        10 => Frame::Ping,
        11 => Frame::PingResponse(ServerHealth {
            queued_points: d.u64("queued points")?,
            in_flight_points: d.u64("in-flight points")?,
            workers: d.u32("worker count")?,
            max_queue: d.u64("max queue")?,
        }),
        other => return Err(WireError::Malformed(format!("unknown frame type {other}"))),
    };
    d.finish()?;
    Ok(frame)
}

/// Decodes one full frame from a byte slice (header + payload); the test
/// suite's entry point.  Returns the frame and the bytes consumed.
///
/// # Errors
///
/// Same taxonomy as [`read_frame`], with [`WireError::Truncated`] for a
/// slice that ends mid-frame.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    let type_code = u16::from_le_bytes([bytes[6], bytes[7]]);
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let end = HEADER_LEN + len as usize;
    if bytes.len() < end {
        return Err(WireError::Truncated);
    }
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame = decode_payload(type_code, &bytes[HEADER_LEN..end])?;
    Ok((frame, end))
}

/// Reads exactly `buf.len()` bytes, reporting a clean close ([`WireError::Closed`])
/// only when zero bytes were read *and* the caller said a boundary EOF is fine.
fn read_exactly(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 && at_boundary {
                    WireError::Closed
                } else {
                    WireError::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame from a stream.
///
/// The payload is always consumed before validation verdicts are returned,
/// so every non-fatal error ([`WireError::is_fatal`] == `false`) leaves the
/// stream aligned on the next frame boundary.
///
/// # Errors
///
/// * [`WireError::Closed`] — clean EOF between frames.
/// * [`WireError::Truncated`] / [`WireError::Io`] — the stream died mid-frame.
/// * [`WireError::BadMagic`] / [`WireError::Oversized`] — framing cannot be
///   trusted; close the connection.
/// * [`WireError::BadVersion`] / [`WireError::Malformed`] — recoverable; the
///   peer should answer an error frame and keep reading.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exactly(r, &mut header, true)?;
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    let type_code = u16::from_le_bytes([header[6], header[7]]);
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exactly(r, &mut payload, false)?;
    // Version is checked only after the payload is drained: a
    // wrong-version frame is then recoverable — the stream is still aligned.
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    decode_payload(type_code, &payload)
}
