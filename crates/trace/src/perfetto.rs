//! Hand-encoded Perfetto protobuf export.
//!
//! The vendored-dependency policy rules out `prost`, so this module
//! writes the protobuf wire format directly: a `Trace` message is a
//! sequence of length-delimited `packet` fields (field 1), each a
//! `TracePacket`. We emit three packet shapes:
//!
//! * `TrackDescriptor` (field 60) packets naming one track per CPU, one
//!   per counter series, and one instant-event track;
//! * `TrackEvent` (field 11) slice begin/end packets on the CPU tracks
//!   (one slice per run quantum, named after the task);
//! * `TrackEvent` counter and instant packets for samples, wakes,
//!   steals, preemptions, and readjustment epochs.
//!
//! Field numbers used (from `perfetto/trace/trace_packet.proto` and
//! `track_event/*.proto`):
//!
//! | message | field | number | wire type |
//! |---|---|---|---|
//! | Trace | packet | 1 | len |
//! | TracePacket | timestamp | 8 | varint |
//! | TracePacket | trusted_packet_sequence_id | 10 | varint |
//! | TracePacket | track_event | 11 | len |
//! | TracePacket | track_descriptor | 60 | len |
//! | TrackDescriptor | uuid | 1 | varint |
//! | TrackDescriptor | name | 2 | len |
//! | TrackDescriptor | counter | 8 | len |
//! | TrackEvent | type | 9 | varint |
//! | TrackEvent | track_uuid | 11 | varint |
//! | TrackEvent | name | 23 | len |
//! | TrackEvent | double_counter_value | 44 | 64-bit |
//!
//! The output opens directly in <https://ui.perfetto.dev>.

use std::collections::{BTreeSet, HashMap};

use sfs_core::task::TaskId;

use crate::event::{CounterTrack, EventTrace, TraceError, TraceEvent, TraceMeta};

const WIRE_VARINT: u64 = 0;
const WIRE_FIXED64: u64 = 1;
const WIRE_LEN: u64 = 2;

// TracePacket field numbers.
const PKT_TIMESTAMP: u64 = 8;
const PKT_SEQUENCE_ID: u64 = 10;
const PKT_TRACK_EVENT: u64 = 11;
const PKT_TRACK_DESCRIPTOR: u64 = 60;

// TrackDescriptor / TrackEvent field numbers.
const TDESC_UUID: u64 = 1;
const TDESC_NAME: u64 = 2;
const TDESC_COUNTER: u64 = 8;
const TEV_TYPE: u64 = 9;
const TEV_TRACK_UUID: u64 = 11;
const TEV_NAME: u64 = 23;
const TEV_DOUBLE_COUNTER: u64 = 44;

// TrackEvent.Type enum values.
const TYPE_SLICE_BEGIN: u64 = 1;
const TYPE_SLICE_END: u64 = 2;
const TYPE_INSTANT: u64 = 3;
const TYPE_COUNTER: u64 = 4;

/// All packets carry the same synthetic sequence id (any nonzero value
/// is accepted for self-contained traces).
const SEQUENCE_ID: u64 = 1;

const CPU_TRACK_BASE: u64 = 0x10;
const COUNTER_TRACK_BASE: u64 = 0x1000;
const EVENTS_TRACK: u64 = 0x2000;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_key(buf: &mut Vec<u8>, field: u64, wire: u64) {
    put_varint(buf, (field << 3) | wire);
}

fn put_varint_field(buf: &mut Vec<u8>, field: u64, v: u64) {
    put_key(buf, field, WIRE_VARINT);
    put_varint(buf, v);
}

fn put_len_field(buf: &mut Vec<u8>, field: u64, payload: &[u8]) {
    put_key(buf, field, WIRE_LEN);
    put_varint(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
}

fn put_string_field(buf: &mut Vec<u8>, field: u64, s: &str) {
    put_len_field(buf, field, s.as_bytes());
}

fn put_double_field(buf: &mut Vec<u8>, field: u64, v: f64) {
    put_key(buf, field, WIRE_FIXED64);
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn track_descriptor_packet(uuid: u64, name: &str, counter: bool) -> Vec<u8> {
    let mut desc = Vec::new();
    put_varint_field(&mut desc, TDESC_UUID, uuid);
    put_string_field(&mut desc, TDESC_NAME, name);
    if counter {
        // An empty CounterDescriptor submessage marks the track as a
        // counter track.
        put_len_field(&mut desc, TDESC_COUNTER, &[]);
    }
    let mut pkt = Vec::new();
    put_len_field(&mut pkt, PKT_TRACK_DESCRIPTOR, &desc);
    put_varint_field(&mut pkt, PKT_SEQUENCE_ID, SEQUENCE_ID);
    pkt
}

fn track_event_packet(t: u64, build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut tev = Vec::new();
    build(&mut tev);
    let mut pkt = Vec::new();
    put_varint_field(&mut pkt, PKT_TIMESTAMP, t);
    put_len_field(&mut pkt, PKT_TRACK_EVENT, &tev);
    put_varint_field(&mut pkt, PKT_SEQUENCE_ID, SEQUENCE_ID);
    pkt
}

fn counter_track_key(track: CounterTrack) -> u64 {
    match track {
        CounterTrack::VirtualTime => 0,
        CounterTrack::Runnable => 1,
        CounterTrack::MaxRunSurplus => 2,
        CounterTrack::MinRunPhi => 3,
        CounterTrack::LockWaitNs => 4,
        CounterTrack::TenantService(t) => 16 + u64::from(t.0),
    }
}

/// Per-trace encoding state: task names for slice and instant labels,
/// and which counter tracks already have a descriptor (each one's
/// descriptor precedes its first sample).
struct Encoder<'a> {
    meta: &'a TraceMeta,
    names: HashMap<TaskId, &'a str>,
    counters_declared: BTreeSet<u64>,
}

impl Encoder<'_> {
    fn name_of(&self, id: TaskId) -> &str {
        self.names.get(&id).copied().unwrap_or("<unregistered>")
    }

    fn encode_event(&mut self, ev: &TraceEvent, out: &mut Vec<u8>) {
        let mut packet = |pkt: &[u8]| {
            put_len_field(out, 1, pkt);
        };
        match *ev {
            TraceEvent::SliceBegin { t, cpu, task } => {
                packet(&track_event_packet(t, |tev| {
                    put_varint_field(tev, TEV_TYPE, TYPE_SLICE_BEGIN);
                    put_varint_field(tev, TEV_TRACK_UUID, CPU_TRACK_BASE + u64::from(cpu));
                    put_string_field(tev, TEV_NAME, self.name_of(task));
                }));
            }
            TraceEvent::SliceEnd { t, cpu, .. } => {
                packet(&track_event_packet(t, |tev| {
                    put_varint_field(tev, TEV_TYPE, TYPE_SLICE_END);
                    put_varint_field(tev, TEV_TRACK_UUID, CPU_TRACK_BASE + u64::from(cpu));
                }));
            }
            TraceEvent::Counter { t, track, value } => {
                let key = counter_track_key(track);
                if self.counters_declared.insert(key) {
                    packet(&track_descriptor_packet(
                        COUNTER_TRACK_BASE + key,
                        &track.label(self.meta),
                        true,
                    ));
                }
                packet(&track_event_packet(t, |tev| {
                    put_varint_field(tev, TEV_TYPE, TYPE_COUNTER);
                    put_varint_field(tev, TEV_TRACK_UUID, COUNTER_TRACK_BASE + key);
                    put_double_field(tev, TEV_DOUBLE_COUNTER, value);
                }));
            }
            ref instant => {
                let label = match *instant {
                    TraceEvent::CtxSwitch { cpu, from, to, .. } => {
                        let from = from.map_or("idle", |id| self.name_of(id));
                        format!("switch cpu{cpu}: {from} -> {}", self.name_of(to))
                    }
                    TraceEvent::Wake { task, .. } => format!("wake {}", self.name_of(task)),
                    TraceEvent::PreemptEvict {
                        cpu, victim, by, ..
                    } => {
                        format!(
                            "preempt cpu{cpu}: {} evicts {}",
                            self.name_of(by),
                            self.name_of(victim)
                        )
                    }
                    TraceEvent::Migrate {
                        task,
                        from_shard,
                        to_shard,
                        kind,
                        ..
                    } => {
                        format!(
                            "{kind:?} {}: shard {from_shard} -> {to_shard}",
                            self.name_of(task)
                        )
                    }
                    TraceEvent::Readjust { calls, clamped, .. } => {
                        format!("readjust x{calls} (clamped {clamped})")
                    }
                    TraceEvent::TaskRejected { task, .. } => {
                        format!("rejected {}", self.name_of(task))
                    }
                    TraceEvent::TaskReaped { task, .. } => {
                        format!("reaped {}", self.name_of(task))
                    }
                    TraceEvent::WatchdogFired { shard, .. } => {
                        format!("watchdog fired: shard {shard}")
                    }
                    _ => unreachable!("slice/counter events handled above"),
                };
                packet(&track_event_packet(instant.timestamp(), |tev| {
                    put_varint_field(tev, TEV_TYPE, TYPE_INSTANT);
                    put_varint_field(tev, TEV_TRACK_UUID, EVENTS_TRACK);
                    put_string_field(tev, TEV_NAME, &label);
                }));
            }
        }
    }
}

/// Encodes a trace as a Perfetto `Trace` protobuf, ready to be written
/// to a `.perfetto-trace` file and opened in the Perfetto UI. The fixed
/// track descriptors (CPUs, sched events) come first, then one packet
/// per event in trace order.
pub fn encode(trace: &EventTrace) -> Vec<u8> {
    let meta = &trace.meta;
    let mut out = Vec::new();
    for cpu in 0..meta.cpus.max(1) {
        put_len_field(
            &mut out,
            1,
            &track_descriptor_packet(
                CPU_TRACK_BASE + u64::from(cpu),
                &format!("cpu {cpu} ({})", meta.substrate),
                false,
            ),
        );
    }
    put_len_field(
        &mut out,
        1,
        &track_descriptor_packet(EVENTS_TRACK, "sched events", false),
    );
    let mut enc = Encoder {
        meta,
        names: trace
            .tasks
            .iter()
            .map(|t| (t.id, t.name.as_str()))
            .collect(),
        counters_declared: BTreeSet::new(),
    };
    for ev in &trace.events {
        enc.encode_event(ev, &mut out);
    }
    out
}

/// Summary statistics from a structural scan of encoded bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfettoStats {
    /// Total `TracePacket`s.
    pub packets: usize,
    /// Packets carrying a `TrackDescriptor`.
    pub track_descriptors: usize,
    /// Packets carrying a `TrackEvent`.
    pub track_events: usize,
    /// `TrackEvent`s of counter type.
    pub counter_samples: usize,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| TraceError::Malformed("truncated varint".into()))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(TraceError::Malformed("varint overflow".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn skip(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| TraceError::Malformed("length past end of buffer".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one `(field, payload)` where non-length-delimited payloads
    /// are consumed and length-delimited ones are returned.
    fn field(&mut self) -> Result<(u64, Option<&'a [u8]>), TraceError> {
        let key = self.varint()?;
        let field = key >> 3;
        match key & 7 {
            WIRE_VARINT => {
                self.varint()?;
                Ok((field, None))
            }
            WIRE_FIXED64 => {
                self.skip(8)?;
                Ok((field, None))
            }
            WIRE_LEN => {
                let len = self.varint()? as usize;
                Ok((field, Some(self.skip(len)?)))
            }
            5 => {
                self.skip(4)?;
                Ok((field, None))
            }
            wire => Err(TraceError::Malformed(format!(
                "unsupported wire type {wire}"
            ))),
        }
    }
}

/// Structurally validates encoded bytes: the buffer must be a sequence
/// of length-delimited `packet` fields, every packet must parse, every
/// `TrackEvent` packet must carry a nonzero sequence id, and every
/// `TrackDescriptor` a nonzero uuid. Returns packet statistics.
pub fn validate_encoded(bytes: &[u8]) -> Result<PerfettoStats, TraceError> {
    let mut stats = PerfettoStats::default();
    let mut top = Reader { buf: bytes, pos: 0 };
    while !top.done() {
        let (field, payload) = top.field()?;
        let payload = match (field, payload) {
            (1, Some(p)) => p,
            _ => {
                return Err(TraceError::Malformed(format!(
                    "top-level field {field} is not a packet"
                )))
            }
        };
        stats.packets += 1;
        let mut pkt = Reader {
            buf: payload,
            pos: 0,
        };
        let mut seq = 0u64;
        let mut is_track_event = false;
        while !pkt.done() {
            let start = pkt.pos;
            let (pfield, ppayload) = pkt.field()?;
            match pfield {
                PKT_SEQUENCE_ID => {
                    // Re-read the varint value for the check.
                    let mut r = Reader {
                        buf: payload,
                        pos: start,
                    };
                    r.varint()?;
                    seq = r.varint()?;
                }
                PKT_TRACK_DESCRIPTOR => {
                    stats.track_descriptors += 1;
                    let desc = ppayload.ok_or_else(|| {
                        TraceError::Malformed("descriptor not length-delimited".into())
                    })?;
                    let mut d = Reader { buf: desc, pos: 0 };
                    let mut uuid = 0u64;
                    while !d.done() {
                        let dstart = d.pos;
                        let (dfield, _) = d.field()?;
                        if dfield == TDESC_UUID {
                            let mut r = Reader {
                                buf: desc,
                                pos: dstart,
                            };
                            r.varint()?;
                            uuid = r.varint()?;
                        }
                    }
                    if uuid == 0 {
                        return Err(TraceError::Malformed(
                            "track descriptor without uuid".into(),
                        ));
                    }
                }
                PKT_TRACK_EVENT => {
                    is_track_event = true;
                    stats.track_events += 1;
                    let tev = ppayload.ok_or_else(|| {
                        TraceError::Malformed("track event not length-delimited".into())
                    })?;
                    let mut e = Reader { buf: tev, pos: 0 };
                    while !e.done() {
                        let estart = e.pos;
                        let (efield, _) = e.field()?;
                        if efield == TEV_TYPE {
                            let mut r = Reader {
                                buf: tev,
                                pos: estart,
                            };
                            r.varint()?;
                            if r.varint()? == TYPE_COUNTER {
                                stats.counter_samples += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        if is_track_event && seq == 0 {
            return Err(TraceError::Malformed(
                "track event packet without trusted_packet_sequence_id".into(),
            ));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use sfs_core::sched::SwitchReason;
    use sfs_core::task::{TaskId, TenantId};

    use super::*;
    use crate::event::{TaskMeta, TraceMeta};

    fn sample_trace() -> EventTrace {
        let mut trace = EventTrace::new(TraceMeta {
            substrate: "sim".into(),
            scenario: "t".into(),
            policy: "sfs".into(),
            cpus: 2,
            tenants: vec!["acme".into()],
        });
        trace.tasks.push(TaskMeta {
            id: TaskId(1),
            name: "A".into(),
            weight: 3,
            tenant: Some(TenantId(0)),
        });
        trace.events = vec![
            TraceEvent::Wake {
                t: 0,
                task: TaskId(1),
            },
            TraceEvent::CtxSwitch {
                t: 0,
                cpu: 0,
                from: None,
                to: TaskId(1),
            },
            TraceEvent::SliceBegin {
                t: 0,
                cpu: 0,
                task: TaskId(1),
            },
            TraceEvent::Counter {
                t: 5,
                track: CounterTrack::VirtualTime,
                value: 1.25,
            },
            TraceEvent::Counter {
                t: 5,
                track: CounterTrack::TenantService(TenantId(0)),
                value: 0.5,
            },
            TraceEvent::SliceEnd {
                t: 10,
                cpu: 0,
                task: TaskId(1),
                reason: SwitchReason::Preempted,
            },
        ];
        trace
    }

    #[test]
    fn encoded_trace_passes_structural_validation() {
        let trace = sample_trace();
        trace.validate().expect("semantically valid");
        let bytes = encode(&trace);
        let stats = validate_encoded(&bytes).expect("structurally valid");
        // 2 cpu tracks + events track + 2 counter tracks.
        assert_eq!(stats.track_descriptors, 5);
        // wake + switch instants, slice begin/end, 2 counters.
        assert_eq!(stats.track_events, 6);
        assert_eq!(stats.counter_samples, 2);
        assert_eq!(stats.packets, 11);
    }

    /// Two plain counter tracks and a tenant track whose samples
    /// interleave, so each descriptor must precede its own first sample
    /// rather than sit in the header.
    fn counter_trace() -> EventTrace {
        let mut trace = sample_trace();
        trace.meta.tenants.push("globex".into());
        trace.tasks.push(TaskMeta {
            id: TaskId(2),
            name: "B".into(),
            weight: 1,
            tenant: Some(TenantId(1)),
        });
        let counter = |t, track, value| TraceEvent::Counter { t, track, value };
        trace.events.extend([
            counter(12, CounterTrack::Runnable, 2.0),
            counter(12, CounterTrack::VirtualTime, 2.5),
            TraceEvent::Wake {
                t: 13,
                task: TaskId(2),
            },
            TraceEvent::PreemptEvict {
                t: 13,
                cpu: 1,
                victim: TaskId(1),
                by: TaskId(2),
            },
            counter(14, CounterTrack::TenantService(TenantId(1)), 0.125),
            counter(15, CounterTrack::Runnable, 1.0),
            counter(16, CounterTrack::TenantService(TenantId(1)), 0.25),
            TraceEvent::Readjust {
                t: 17,
                calls: 3,
                clamped: 1,
            },
        ]);
        trace
    }

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The encoder's output is pinned byte for byte (FNV-1a-64 of the
    /// whole buffer): a refactor that reorders a descriptor or changes
    /// one field tag moves a digest.
    #[test]
    fn encoded_bytes_are_pinned() {
        assert_eq!(fnv1a64(&encode(&sample_trace())), 0xc0dc7c86aacd8530);
        let bytes = encode(&counter_trace());
        validate_encoded(&bytes).expect("structurally valid");
        assert_eq!(fnv1a64(&bytes), 0xdfca1c8c96c71664);
    }

    #[test]
    fn truncated_and_garbage_bytes_are_rejected() {
        let bytes = encode(&sample_trace());
        assert!(validate_encoded(&bytes[..bytes.len() - 1]).is_err());
        assert!(validate_encoded(&[0xff, 0xff]).is_err());
        assert_eq!(
            validate_encoded(&[]).expect("empty is structurally fine"),
            PerfettoStats::default()
        );
    }
}
