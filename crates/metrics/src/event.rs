//! The typed run-journal events and their deterministic line codec.
//!
//! Every event is one line of text: `t=<virtual seconds> <EventName>
//! key=value ...`. Numbers use Rust's `Display`, whose shortest-round-trip
//! guarantee makes `f64` values survive the text round trip *bitwise* — the
//! property the offline replay leans on. Strings are double-quoted with
//! `\\`, `\"` and `\n` escapes; `u64` lists are comma-joined.
//!
//! Each event is declared once, as a row of the `run_events!` table below:
//! the enum, its journal names, the line encoder and the parser are all
//! generated from that row, so they cannot drift apart.

use std::fmt::Write as _;

use crate::error::{MetricsError, Result};

/// Why the scheduler re-ran the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanCause {
    /// A scripted mid-stream join changed the membership.
    Join,
    /// A device death forced a repartition onto the survivors.
    Death,
}

impl ReplanCause {
    /// The journal token for this cause (`"join"` / `"death"`), also used as
    /// a metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplanCause::Join => "join",
            ReplanCause::Death => "death",
        }
    }
}

/// The journal key of a table field: its name unless the row gives another.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Which kind of run emits an event. One journal can hold all three; each
/// fold counts its own family and passes over the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventFamily {
    /// The streaming scheduler's fusion worker.
    Stream,
    /// The serving front-door: the admission queue and the serving drill.
    Serve,
    /// The one-shot cluster batch runtime.
    Batch,
}

/// The event table. A row is its [`EventFamily`], then a variant with its doc
/// comments and its fields in line order; `field as "key"` names the journal
/// key where it differs from the field name.
macro_rules! run_events {
    ($(
        $(#[$variant_meta:meta])*
        $family:ident $variant:ident $({$(
            $(#[$field_meta:meta])*
            $field:ident $(as $key:literal)?: $ty:ty,
        )+})?,
    )+) => {
        /// One typed observation from a run; all three families can share
        /// one journal.
        #[derive(Debug, Clone, PartialEq)]
        pub enum RunEvent {$(
            $(#[$variant_meta])*
            $variant $({$(
                $(#[$field_meta])*
                $field: $ty,
            )+})?,
        )+}

        impl RunEvent {
            /// Every event's journal name, in table order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($variant)),+];

            /// The event's journal name.
            pub fn name(&self) -> &'static str {
                match self {
                    $(RunEvent::$variant { .. } => stringify!($variant),)+
                }
            }

            /// The family the event's row names.
            pub fn family(&self) -> EventFamily {
                match self {
                    $(RunEvent::$variant { .. } => EventFamily::$family,)+
                }
            }

            /// Appends the event's ` key=value` fields, in table order.
            fn write_fields(&self, out: &mut String) {
                match self {$(
                    RunEvent::$variant $({ $($field),+ })? => {
                        $($(write_field(out, key!($field $($key)?), $field);)+)?
                    }
                )+}
            }

            /// Builds the event `fields` names from exactly its row's keys.
            fn from_fields(fields: &mut Fields<'_>) -> Result<Self> {
                Ok(match fields.name {
                    $(stringify!($variant) => RunEvent::$variant $({$(
                        $field: fields.take(key!($field $($key)?))?,
                    )+})?,)+
                    other => return Err(fields.error(format!("unknown event `{other}`"))),
                })
            }
        }
    };
}

run_events! {
    // ---- Streaming scheduler ------------------------------------------
    /// The stream began: its layout and initial membership.
    Stream StreamStarted {
        /// Total rounds in the layout.
        rounds: u64,
        /// Configured (nominal) samples per round.
        round_size: u64,
        /// Total input samples.
        samples: u64,
        /// Devices in the initial membership.
        devices: u64,
    },
    /// A membership epoch opened (1-based).
    Stream EpochStarted {
        /// Epoch ordinal.
        epoch: u64,
    },
    /// Encoded bytes arrived from (or were shipped by) a device — including
    /// corrupted, duplicated and eaten frames: they travelled too.
    Stream Delivery {
        /// Sending device id.
        device: u64,
        /// Encoded frame length in bytes.
        bytes: u64,
    },
    /// A control frame (join, heartbeat or leave) was observed.
    Stream ControlFrame {
        /// Sending device id.
        device: u64,
    },
    /// A feature-batch data frame was observed.
    Stream DataFrame {
        /// Sending device id.
        device: u64,
    },
    /// A heartbeat beacon was observed (fresh or stale).
    Stream Heartbeat {
        /// Beating device id.
        device: u64,
        /// Rounds the device claims to have completed this epoch.
        sequence: u64,
    },
    /// The health tracker's freshness rule rejected a control frame as stale.
    Stream StaleControlFrame {
        /// Sending device id.
        device: u64,
    },
    /// The health tracker ignored a heartbeat as stale.
    Stream StaleHeartbeat {
        /// Beating device id.
        device: u64,
    },
    /// A delivery failed: corrupt, truncated, or a data frame the link ate.
    Stream CorruptFrame {
        /// Sending device id.
        device: u64,
    },
    /// A data frame's payload duplicated already-stashed samples.
    Stream DuplicateFrame {
        /// Sending device id.
        device: u64,
    },
    /// The link ate a heartbeat beacon (not retried).
    Stream DroppedHeartbeat {
        /// Beating device id.
        device: u64,
    },
    /// A data-frame re-request was issued.
    Stream Retry {
        /// Device whose frame is re-requested.
        device: u64,
        /// Attempt ordinal (1-based).
        attempt: u64,
    },
    /// Virtual seconds one epoch spent in retry backoff (pre-summed, in the
    /// scheduler's own summation order, so replay accumulates bitwise).
    Stream RetryCost {
        /// Backoff seconds charged to the clock.
        seconds: f64,
    },
    /// A round was fused.
    Stream RoundFused {
        /// Global round id.
        round: u64,
        /// Samples the round carried.
        samples: u64,
        /// Whether missing sub-models were zero-filled.
        degraded: bool,
    },
    /// A membership epoch closed.
    Stream EpochEnded {
        /// Epoch ordinal.
        epoch: u64,
        /// Most rounds simultaneously in flight this epoch.
        max_in_flight: u64,
    },
    /// Rounds one device delivered within the closing epoch (every receiver
    /// gets one, including zero-round entries).
    Stream DeviceRounds {
        /// Device id.
        device: u64,
        /// Rounds delivered (highest fresh heartbeat sequence).
        rounds: u64,
    },
    /// A device was declared dead.
    Stream DeviceDead {
        /// The dead device id.
        device: u64,
    },
    /// A device was admitted mid-stream.
    Stream DeviceJoined {
        /// The joining device id.
        device: u64,
        /// Whether this was a rejoin (new identity-epoch of a terminal id).
        rejoin: bool,
    },
    /// The planner re-assigned sub-models.
    Stream Replan {
        /// What triggered it.
        cause: ReplanCause,
        /// Sub-models the new plan leaves unhosted (empty at full fidelity).
        missing: Vec<u64>,
    },
    /// In-flight rounds were scheduled for replay after a death.
    Stream RoundsReplayed {
        /// Rounds replayed.
        rounds: u64,
        /// Samples those rounds carried.
        samples: u64,
    },
    /// Virtual seconds charged to one death's recovery window (pre-summed:
    /// detection + replan + replay).
    Stream Recovery {
        /// Recovery seconds.
        seconds: f64,
    },
    /// The stream finished; the timestamp is the virtual end-to-end time.
    Stream StreamEnded {
        /// Steady-state throughput of the final membership.
        steady_state_samples_per_second as "steady_state": f64,
    },

    // ---- Serving front-door -------------------------------------------
    /// A serving drill began.
    Serve ServeStarted {
        /// Number of tenants.
        tenants: u64,
        /// Round capacity the batcher fills up to.
        capacity: u64,
        /// Pipeline depth the drill starts at (post-clamp).
        initial_depth: u64,
        /// Configured open-loop arrival rate.
        offered_rate_per_second as "offered_rate": f64,
    },
    /// One tenant's admission contract was registered.
    Serve TenantRegistered {
        /// Tenant index.
        tenant: u64,
        /// Tenant display name.
        name: String,
    },
    /// A request arrived at admission.
    Serve RequestAdmitted {
        /// Tenant index.
        tenant: u64,
        /// Request id.
        id: u64,
    },
    /// A tenant queue's depth after an enqueue.
    Serve QueueDepth {
        /// Tenant index.
        tenant: u64,
        /// Requests now queued for the tenant.
        depth: u64,
    },
    /// A request was shed on arrival (queue full).
    Serve RequestShedOverflow {
        /// Tenant index.
        tenant: u64,
        /// Request id.
        id: u64,
    },
    /// A queued request was dropped at dispatch (deadline expired).
    Serve RequestShedDeadline {
        /// Tenant index.
        tenant: u64,
        /// Request id.
        id: u64,
    },
    /// A request was handed to a round.
    Serve RequestDispatched {
        /// Tenant index.
        tenant: u64,
        /// Request id.
        id: u64,
        /// When the request arrived, for latency reconstruction.
        arrival_seconds as "arrival": f64,
    },
    /// The adaptive controller changed the pipeline depth.
    Serve DepthChanged {
        /// Round ordinal the transition took effect before.
        round: u64,
        /// Depth before.
        from: u64,
        /// Depth after.
        to: u64,
    },
    /// A scripted device crash fired mid-drill.
    Serve ServeCrash {
        /// The crashed device id.
        device: u64,
        /// Round ordinal the crash hit.
        round: u64,
    },
    /// Virtual seconds one mid-drill crash charged to recovery (pre-summed).
    Serve ServeRecovery {
        /// Recovery seconds.
        seconds: f64,
    },
    /// The batcher formed and priced one round; the requests dispatched since
    /// the previous round ride in it, in batch order.
    Serve ServeRound {
        /// Round ordinal.
        round: u64,
        /// Virtual dispatch time.
        start_seconds as "start": f64,
        /// Virtual completion time.
        completion_seconds as "completion": f64,
        /// Requests the round carried.
        size: u64,
    },
    /// The serving drill finished; the timestamp is the last completion.
    Serve ServeEnded,

    // ---- One-shot batch runtime ---------------------------------------
    /// A one-shot cluster batch run began.
    Batch BatchStarted {
        /// Devices in the run.
        devices: u64,
        /// Samples in the batch.
        samples: u64,
    },
    /// A one-shot device's batch frame arrived: one data frame of `bytes`
    /// encoded bytes.
    Batch BatchDelivery {
        /// Sending device id.
        device: u64,
        /// Encoded frame length in bytes.
        bytes: u64,
    },
    /// A one-shot cluster batch run finished.
    Batch BatchEnded {
        /// Frames shipped.
        frames: u64,
        /// Encoded bytes shipped.
        bytes_on_wire: u64,
        /// Virtual communication seconds of the bottleneck device.
        simulated_seconds: f64,
    },
}

/// One journal entry: an event plus its virtual-clock timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Virtual seconds on the run's `SimClock` when the event was recorded.
    pub at: f64,
    /// The event.
    pub event: RunEvent,
}

impl EventRecord {
    /// Appends the record's journal line (no trailing newline) to `out`.
    pub(crate) fn write_line(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "t={} {}", self.at, self.event.name());
        self.event.write_fields(out);
    }

    /// Decodes one journal line. `line_number` is 1-based, for error context.
    /// The line must carry `t`, one event name and exactly that event's
    /// keys, each once — nothing the encoder could not have produced.
    pub fn from_line(line: &str, line_number: usize) -> Result<Self> {
        let mut fields = Fields::tokenize(line, line_number)?;
        let at = fields.take("t")?;
        let event = RunEvent::from_fields(&mut fields)?;
        match fields.entries.first() {
            Some((key, _)) => {
                Err(fields.error(format!("unknown field `{key}` for event `{}`", fields.name)))
            }
            None => Ok(EventRecord { at, event }),
        }
    }
}

// ---- field codecs ---------------------------------------------------------

/// A decoded field value, or what is wrong with the field.
type Decoded<T> = std::result::Result<T, &'static str>;

/// How one field type is written to, and read back from, a journal line.
trait FieldCodec: Sized {
    fn encode(&self, out: &mut String);
    fn decode(token: Token<'_>) -> Decoded<Self>;
}

fn write_field(out: &mut String, key: &str, value: &impl FieldCodec) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    value.encode(out);
}

/// The text of an unquoted field value.
fn plain(token: Token<'_>) -> Decoded<&str> {
    match token {
        Token::Plain(text) => Ok(text),
        Token::Quoted(_) => Err("must not be quoted"),
    }
}

/// `Display`/`FromStr` scalars: written bare, read back with `parse`.
macro_rules! scalar_codec {
    ($($ty:ty => $complaint:literal),+) => {$(
        impl FieldCodec for $ty {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn decode(token: Token<'_>) -> Decoded<Self> {
                plain(token)?.parse().map_err(|_| $complaint)
            }
        }
    )+};
}
scalar_codec!(u64 => "is not a u64", f64 => "is not an f64", bool => "is not a bool");

impl FieldCodec for String {
    fn encode(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    fn decode(token: Token<'_>) -> Decoded<Self> {
        match token {
            Token::Quoted(text) => Ok(text),
            Token::Plain(_) => Err("must be quoted"),
        }
    }
}

impl FieldCodec for Vec<u64> {
    fn encode(&self, out: &mut String) {
        for (i, value) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            value.encode(out);
        }
    }
    fn decode(token: Token<'_>) -> Decoded<Self> {
        let text = plain(token)?;
        if text.is_empty() {
            return Ok(Vec::new());
        }
        text.split(',')
            .map(|part| part.parse().map_err(|_| "has a non-u64 element"))
            .collect()
    }
}

impl FieldCodec for ReplanCause {
    fn encode(&self, out: &mut String) {
        out.push_str(self.as_str());
    }
    fn decode(token: Token<'_>) -> Decoded<Self> {
        match plain(token)? {
            "join" => Ok(ReplanCause::Join),
            "death" => Ok(ReplanCause::Death),
            _ => Err("is not a replan cause"),
        }
    }
}

// ---- decoding -------------------------------------------------------------

/// One tokenized field value: plain text (a slice of the line) or an
/// unescaped quoted string.
enum Token<'a> {
    Plain(&'a str),
    Quoted(String),
}

/// The tokenized fields of one journal line; parsing takes them out one key
/// at a time, so whatever is left at the end is a key the event does not have.
struct Fields<'a> {
    line: usize,
    name: &'a str,
    entries: Vec<(&'a str, Token<'a>)>,
}

impl<'a> Fields<'a> {
    fn tokenize(text: &'a str, line: usize) -> Result<Self> {
        let err = |message: String| MetricsError::Parse { line, message };
        let mut chars = text.char_indices().peekable();
        let mut entries = Vec::new();
        let mut name: Option<&'a str> = None;
        while let Some(&(start, c)) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
                continue;
            }
            // A bare token (no `=`) is the event name.
            let mut end = text.len();
            let mut eq: Option<usize> = None;
            for (i, c) in chars.clone() {
                if c == '=' {
                    eq = Some(i);
                    break;
                }
                if c.is_whitespace() {
                    end = i;
                    break;
                }
            }
            let Some(eq) = eq else {
                if name.replace(&text[start..end]).is_some() {
                    return Err(err("two event names on one line".to_string()));
                }
                while chars.peek().is_some_and(|&(i, _)| i < end) {
                    chars.next();
                }
                continue;
            };
            let key = &text[start..eq];
            if key.is_empty() || key.chars().any(char::is_whitespace) {
                return Err(err(format!("malformed field near `{}`", &text[start..eq])));
            }
            // Skip past the `=`.
            while chars.next().is_some_and(|(i, _)| i < eq) {}
            let token = if chars.peek().is_some_and(|&(_, c)| c == '"') {
                chars.next();
                let mut value = String::new();
                let mut closed = false;
                while let Some((_, c)) = chars.next() {
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => match chars.next() {
                            Some((_, '\\')) => value.push('\\'),
                            Some((_, '"')) => value.push('"'),
                            Some((_, 'n')) => value.push('\n'),
                            other => {
                                return Err(err(format!(
                                    "bad escape `\\{}` in field `{key}`",
                                    other.map_or(String::new(), |(_, c)| c.to_string())
                                )))
                            }
                        },
                        other => value.push(other),
                    }
                }
                if !closed {
                    return Err(err(format!("unterminated string in field `{key}`")));
                }
                Token::Quoted(value)
            } else {
                let from = chars.peek().map_or(text.len(), |&(i, _)| i);
                let mut to = text.len();
                while let Some(&(i, c)) = chars.peek() {
                    if c.is_whitespace() {
                        to = i;
                        break;
                    }
                    chars.next();
                }
                Token::Plain(&text[from..to])
            };
            entries.push((key, token));
        }
        let name = name.ok_or_else(|| MetricsError::Parse {
            line,
            message: "missing event name".to_string(),
        })?;
        Ok(Fields {
            line,
            name,
            entries,
        })
    }

    fn error(&self, message: String) -> MetricsError {
        MetricsError::Parse {
            line: self.line,
            message,
        }
    }

    /// Removes and decodes the one entry for `key`: a missing key, a second
    /// entry for it, or a value of the wrong type is a parse error.
    fn take<T: FieldCodec>(&mut self, key: &str) -> Result<T> {
        let Some(index) = self.entries.iter().position(|(k, _)| *k == key) else {
            return Err(self.error(format!("missing field `{key}`")));
        };
        let (_, token) = self.entries.remove(index);
        if self.entries.iter().any(|(k, _)| *k == key) {
            return Err(self.error(format!("duplicate field `{key}`")));
        }
        T::decode(token).map_err(|complaint| self.error(format!("field `{key}` {complaint}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of(record: &EventRecord) -> String {
        let mut out = String::new();
        record.write_line(&mut out);
        out
    }

    fn round_trip(record: EventRecord) {
        let line = line_of(&record);
        let back = EventRecord::from_line(&line, 1).expect(&line);
        assert_eq!(back.at.to_bits(), record.at.to_bits(), "{line}");
        assert_eq!(back, record, "{line}");
        // The encoder's lines are a fixed point of parse-then-encode.
        assert_eq!(line_of(&back), line);
    }

    #[test]
    fn every_variant_round_trips_through_its_line() {
        let samples = vec![
            RunEvent::StreamStarted {
                rounds: 8,
                round_size: 2,
                samples: 16,
                devices: 4,
            },
            RunEvent::EpochStarted { epoch: 1 },
            RunEvent::Delivery {
                device: 3,
                bytes: 4096,
            },
            RunEvent::ControlFrame { device: 0 },
            RunEvent::DataFrame { device: 1 },
            RunEvent::Heartbeat {
                device: 2,
                sequence: 7,
            },
            RunEvent::StaleControlFrame { device: 1 },
            RunEvent::StaleHeartbeat { device: 0 },
            RunEvent::CorruptFrame { device: 2 },
            RunEvent::DuplicateFrame { device: 3 },
            RunEvent::DroppedHeartbeat { device: 1 },
            RunEvent::Retry {
                device: 2,
                attempt: 1,
            },
            RunEvent::RetryCost { seconds: 0.1 + 0.2 },
            RunEvent::RoundFused {
                round: 5,
                samples: 2,
                degraded: true,
            },
            RunEvent::EpochEnded {
                epoch: 2,
                max_in_flight: 3,
            },
            RunEvent::DeviceRounds {
                device: 9,
                rounds: 0,
            },
            RunEvent::DeviceDead { device: 2 },
            RunEvent::DeviceJoined {
                device: 5,
                rejoin: true,
            },
            RunEvent::Replan {
                cause: ReplanCause::Death,
                missing: vec![1, 3],
            },
            RunEvent::Replan {
                cause: ReplanCause::Join,
                missing: Vec::new(),
            },
            RunEvent::RoundsReplayed {
                rounds: 1,
                samples: 2,
            },
            RunEvent::Recovery { seconds: 1.25 },
            RunEvent::StreamEnded {
                steady_state_samples_per_second: 123.456_789,
            },
            RunEvent::ServeStarted {
                tenants: 2,
                capacity: 4,
                initial_depth: 2,
                offered_rate_per_second: 0.3,
            },
            RunEvent::TenantRegistered {
                tenant: 0,
                name: "edge \"cam\"\\north\n".to_string(),
            },
            RunEvent::RequestAdmitted { tenant: 0, id: 17 },
            RunEvent::QueueDepth {
                tenant: 1,
                depth: 4,
            },
            RunEvent::RequestShedOverflow { tenant: 1, id: 18 },
            RunEvent::RequestShedDeadline { tenant: 0, id: 19 },
            RunEvent::RequestDispatched {
                tenant: 0,
                id: 20,
                arrival_seconds: 2.5,
            },
            RunEvent::DepthChanged {
                round: 3,
                from: 2,
                to: 4,
            },
            RunEvent::ServeCrash {
                device: 1,
                round: 2,
            },
            RunEvent::ServeRecovery { seconds: 0.75 },
            RunEvent::ServeRound {
                round: 0,
                start_seconds: 0.0,
                completion_seconds: 1.5,
                size: 4,
            },
            RunEvent::ServeEnded,
            RunEvent::BatchStarted {
                devices: 4,
                samples: 8,
            },
            RunEvent::BatchDelivery {
                device: 2,
                bytes: 16384,
            },
            RunEvent::BatchEnded {
                frames: 4,
                bytes_on_wire: 65536,
                simulated_seconds: 0.875,
            },
        ];
        // Every table row has a sample, in table order: a new row without
        // one fails here.
        let mut covered: Vec<&str> = samples.iter().map(RunEvent::name).collect();
        covered.dedup();
        assert_eq!(covered, RunEvent::NAMES);
        for (i, event) in samples.into_iter().enumerate() {
            round_trip(EventRecord {
                at: i as f64 * 0.3,
                event,
            });
        }
        println!("{} table rows exercised", RunEvent::NAMES.len());
    }

    #[test]
    fn extreme_floats_round_trip_bitwise() {
        for value in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0 / 3.0,
            f64::MAX,
            6.021_023e-19,
        ] {
            round_trip(EventRecord {
                at: value,
                event: RunEvent::RetryCost { seconds: value },
            });
        }
        // NaN compares unequal; check the bits directly.
        let record = EventRecord {
            at: 0.0,
            event: RunEvent::RetryCost { seconds: f64::NAN },
        };
        let back = EventRecord::from_line(&line_of(&record), 1).unwrap();
        let RunEvent::RetryCost { seconds } = back.event else {
            panic!("wrong variant");
        };
        assert!(seconds.is_nan());
    }

    #[test]
    fn malformed_lines_are_typed_parse_errors() {
        for bad in [
            "",
            "t=1.0",
            "t=1.0 NoSuchEvent",
            "t=abc Delivery device=0 bytes=1",
            "t=1.0 Delivery device=0",
            "t=1.0 Delivery device=-1 bytes=2",
            "t=1.0 TenantRegistered tenant=0 name=unquoted",
            "t=1.0 TenantRegistered tenant=0 name=\"open",
            "t=1.0 TenantRegistered tenant=0 name=\"bad\\q\"",
            "t=1.0 Replan cause=nope missing=",
            "t=1.0 Replan cause=death missing=1,x",
            "t=1.0 Delivery Delivery device=0 bytes=1",
        ] {
            let err = EventRecord::from_line(bad, 7).unwrap_err();
            assert!(
                matches!(err, MetricsError::Parse { line: 7, .. }),
                "`{bad}` gave {err:?}"
            );
        }
        // Lines the encoder cannot produce — a key missing, given twice, or
        // one the event does not have — are errors that name the key.
        for (bad, key) in [
            ("t=1.0 Delivery device=0", "`bytes`"),
            ("t=1.0 Delivery device=0 device=9 bytes=2", "`device`"),
            ("t=1.0 Delivery device=0 bytes=2 colour=red", "`colour`"),
            ("t=1.0 t=2.0 ServeEnded", "`t`"),
        ] {
            match EventRecord::from_line(bad, 7) {
                Err(MetricsError::Parse { line: 7, message }) => {
                    assert!(message.contains(key), "`{bad}` gave `{message}`");
                }
                other => panic!("`{bad}` gave {other:?}"),
            }
        }
    }
}
