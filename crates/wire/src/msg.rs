//! The typed `SWP1` message set and its byte codec.
//!
//! One message per frame. Encoding is a tag byte followed by
//! little-endian fields; strings are length-prefixed UTF-8; tensors
//! carry their dimensions, scale bits, and row-major `i8` values.
//! Every decoder path is total: hostile bytes produce a
//! [`WireError`], never a panic and never an unbounded allocation
//! (dimensions are validated before any buffer is sized).

use crate::frame::WireError;
use seculator_compute::quant::QTensor3;

/// Ceiling on one tensor dimension — keeps `c·h·w` far below the frame
/// ceiling so a hostile header cannot drive allocation.
const MAX_DIM: u32 = 1 << 12;

/// Ceiling on a wire string (model names, reject reasons).
const MAX_STR: usize = 1 << 10;

/// Lifecycle of one submitted request, as reported to a polling client.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestState {
    /// The daemon has no record of this request id.
    Unknown,
    /// Admitted, waiting for the scheduler to promote it.
    Queued,
    /// Actively stepped by the scheduler.
    Running {
        /// Layer commits journaled so far.
        commits: u32,
    },
    /// Verified completion; the output travels with the status.
    Completed {
        /// FNV-1a digest of the output (the durable-layer
        /// [`seculator_core::output_digest`]), so clients can check
        /// integrity without shipping the tensor around again.
        digest: u64,
        /// The verified output activations.
        output: QTensor3,
    },
    /// Fail-closed abort; no output was released.
    Aborted {
        /// Whether the verdict was a security breach (tamper detected)
        /// as opposed to an availability failure or client cancel.
        breach: bool,
        /// Deterministic one-line explanation.
        detail: String,
    },
    /// Sealed by the robustness layer; no output was released.
    Quarantined {
        /// Deterministic one-line explanation.
        detail: String,
    },
}

/// Every message that crosses the wire, both directions.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → daemon: opens the auth handshake.
    ClientHello {
        /// Tenant id the connection claims.
        tenant: u32,
        /// Client's fresh nonce, mixed into the auth tag so a recorded
        /// handshake cannot be replayed against a new challenge.
        client_nonce: u64,
    },
    /// Daemon → client: the challenge to prove key possession against.
    ServerChallenge {
        /// Fresh challenge value.
        challenge: u64,
        /// Daemon's nonce, also bound into the tag.
        server_nonce: u64,
    },
    /// Client → daemon: the SHA-256 possession proof.
    AuthProof {
        /// `auth_tag(secret, tenant, challenge, nonces)`.
        tag: [u8; 32],
    },
    /// Daemon → client: the connection is authenticated for `tenant`.
    AuthOk {
        /// The bound tenant id.
        tenant: u32,
    },
    /// Daemon → client: proof rejected; the connection closes.
    AuthReject {
        /// Deterministic reason.
        reason: String,
    },
    /// Client → daemon: submit one inference request.
    Submit {
        /// Client-chosen request id (unique per tenant; reusing an id
        /// over the same durable home resumes its sealed journal).
        request_id: u64,
        /// Model-zoo workload name.
        model: String,
        /// Input activations.
        input: QTensor3,
    },
    /// Daemon → client: the request was admitted.
    SubmitAck {
        /// Echoed request id.
        request_id: u64,
        /// Scheduler round at admission.
        queued_round: u64,
    },
    /// Daemon → client: the request was refused (shed, draining,
    /// unknown model, busy tenant…). The session state is unchanged.
    SubmitReject {
        /// Echoed request id.
        request_id: u64,
        /// Deterministic reason.
        reason: String,
    },
    /// Client → daemon: report the state of one request.
    Poll {
        /// Request id to look up.
        request_id: u64,
    },
    /// Daemon → client: the answer to a [`Message::Poll`].
    Status {
        /// Echoed request id.
        request_id: u64,
        /// Current lifecycle state.
        state: RequestState,
    },
    /// Client → daemon: abort one in-flight request (seals the session
    /// fail-closed; pads are never reissued).
    Abort {
        /// Request id to abort.
        request_id: u64,
    },
    /// Daemon → client: the answer to an [`Message::Abort`].
    AbortAck {
        /// Echoed request id.
        request_id: u64,
        /// `false` when the request was unknown or already terminal.
        cancelled: bool,
    },
    /// Client → daemon: begin graceful drain (flush durable homes,
    /// refuse new submissions, finish in-flight work).
    Drain,
    /// Daemon → client: drain acknowledged.
    DrainAck {
        /// Per-tenant durable flushes performed.
        flushed: u64,
    },
    /// Daemon → client: the peer broke the protocol; the connection
    /// closes after this message.
    ProtocolError {
        /// Deterministic description.
        detail: String,
    },
}

impl Message {
    /// Encodes the message payload (framing is [`crate::encode_frame`]).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Self::ClientHello {
                tenant,
                client_nonce,
            } => {
                b.push(1);
                b.extend_from_slice(&tenant.to_le_bytes());
                b.extend_from_slice(&client_nonce.to_le_bytes());
            }
            Self::ServerChallenge {
                challenge,
                server_nonce,
            } => {
                b.push(2);
                b.extend_from_slice(&challenge.to_le_bytes());
                b.extend_from_slice(&server_nonce.to_le_bytes());
            }
            Self::AuthProof { tag } => {
                b.push(3);
                b.extend_from_slice(tag);
            }
            Self::AuthOk { tenant } => {
                b.push(4);
                b.extend_from_slice(&tenant.to_le_bytes());
            }
            Self::AuthReject { reason } => {
                b.push(5);
                put_str(&mut b, reason);
            }
            Self::Submit {
                request_id,
                model,
                input,
            } => {
                b.push(6);
                b.extend_from_slice(&request_id.to_le_bytes());
                put_str(&mut b, model);
                put_tensor(&mut b, input);
            }
            Self::SubmitAck {
                request_id,
                queued_round,
            } => {
                b.push(7);
                b.extend_from_slice(&request_id.to_le_bytes());
                b.extend_from_slice(&queued_round.to_le_bytes());
            }
            Self::SubmitReject { request_id, reason } => {
                b.push(8);
                b.extend_from_slice(&request_id.to_le_bytes());
                put_str(&mut b, reason);
            }
            Self::Poll { request_id } => {
                b.push(9);
                b.extend_from_slice(&request_id.to_le_bytes());
            }
            Self::Status { request_id, state } => {
                b.push(10);
                b.extend_from_slice(&request_id.to_le_bytes());
                put_state(&mut b, state);
            }
            Self::Abort { request_id } => {
                b.push(11);
                b.extend_from_slice(&request_id.to_le_bytes());
            }
            Self::AbortAck {
                request_id,
                cancelled,
            } => {
                b.push(12);
                b.extend_from_slice(&request_id.to_le_bytes());
                b.push(u8::from(*cancelled));
            }
            Self::Drain => b.push(13),
            Self::DrainAck { flushed } => {
                b.push(14);
                b.extend_from_slice(&flushed.to_le_bytes());
            }
            Self::ProtocolError { detail } => {
                b.push(15);
                put_str(&mut b, detail);
            }
        }
        b
    }

    /// Decodes one message payload, rejecting trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { bytes, pos: 0 };
        let tag = r.u8()?;
        let msg = match tag {
            1 => Self::ClientHello {
                tenant: r.u32()?,
                client_nonce: r.u64()?,
            },
            2 => Self::ServerChallenge {
                challenge: r.u64()?,
                server_nonce: r.u64()?,
            },
            3 => Self::AuthProof { tag: r.tag32()? },
            4 => Self::AuthOk { tenant: r.u32()? },
            5 => Self::AuthReject { reason: r.str()? },
            6 => Self::Submit {
                request_id: r.u64()?,
                model: r.str()?,
                input: r.tensor()?,
            },
            7 => Self::SubmitAck {
                request_id: r.u64()?,
                queued_round: r.u64()?,
            },
            8 => Self::SubmitReject {
                request_id: r.u64()?,
                reason: r.str()?,
            },
            9 => Self::Poll {
                request_id: r.u64()?,
            },
            10 => Self::Status {
                request_id: r.u64()?,
                state: r.state()?,
            },
            11 => Self::Abort {
                request_id: r.u64()?,
            },
            12 => Self::AbortAck {
                request_id: r.u64()?,
                cancelled: r.bool()?,
            },
            13 => Self::Drain,
            14 => Self::DrainAck { flushed: r.u64()? },
            15 => Self::ProtocolError { detail: r.str()? },
            tag => return Err(WireError::UnknownTag { tag }),
        };
        if r.pos != bytes.len() {
            return Err(WireError::TrailingBytes {
                extra: bytes.len() - r.pos,
            });
        }
        Ok(msg)
    }
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_STR);
    b.extend_from_slice(&(s.len() as u32).to_le_bytes());
    b.extend_from_slice(s.as_bytes());
}

fn put_tensor(b: &mut Vec<u8>, t: &QTensor3) {
    b.extend_from_slice(&(t.c as u32).to_le_bytes());
    b.extend_from_slice(&(t.h as u32).to_le_bytes());
    b.extend_from_slice(&(t.w as u32).to_le_bytes());
    b.extend_from_slice(&t.scale.to_bits().to_le_bytes());
    b.extend(t.as_slice().iter().map(|&v| v as u8));
}

fn put_state(b: &mut Vec<u8>, s: &RequestState) {
    match s {
        RequestState::Unknown => b.push(0),
        RequestState::Queued => b.push(1),
        RequestState::Running { commits } => {
            b.push(2);
            b.extend_from_slice(&commits.to_le_bytes());
        }
        RequestState::Completed { digest, output } => {
            b.push(3);
            b.extend_from_slice(&digest.to_le_bytes());
            put_tensor(b, output);
        }
        RequestState::Aborted { breach, detail } => {
            b.push(4);
            b.push(u8::from(*breach));
            put_str(b, detail);
        }
        RequestState::Quarantined { detail } => {
            b.push(5);
            put_str(b, detail);
        }
    }
}

/// Bounds-checked little-endian reader over one payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed {
            what: "length overflow",
        })?;
        if end > self.bytes.len() {
            return Err(WireError::Malformed {
                what: "truncated payload",
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed {
                what: "boolean out of range",
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn tag32(&mut self) -> Result<[u8; 32], WireError> {
        let s = self.take(32)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(s);
        Ok(out)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_STR {
            return Err(WireError::Malformed {
                what: "string too long",
            });
        }
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).map_err(|_| WireError::Malformed {
            what: "string is not utf-8",
        })
    }

    fn tensor(&mut self) -> Result<QTensor3, WireError> {
        let c = self.u32()?;
        let h = self.u32()?;
        let w = self.u32()?;
        if c == 0 || h == 0 || w == 0 || c > MAX_DIM || h > MAX_DIM || w > MAX_DIM {
            return Err(WireError::Malformed {
                what: "tensor dimension out of range",
            });
        }
        let scale = f32::from_bits(self.u32()?);
        if !scale.is_finite() {
            return Err(WireError::Malformed {
                what: "tensor scale is not finite",
            });
        }
        let (c, h, w) = (c as usize, h as usize, w as usize);
        let n = c
            .checked_mul(h)
            .and_then(|v| v.checked_mul(w))
            .ok_or(WireError::Malformed {
                what: "tensor volume overflow",
            })?;
        if n > MAX_FRAME_VALUES {
            return Err(WireError::Malformed {
                what: "tensor volume exceeds the frame ceiling",
            });
        }
        let data = self.take(n)?.iter().map(|&v| v as i8).collect();
        Ok(QTensor3::from_vec(c, h, w, scale, data))
    }

    fn state(&mut self) -> Result<RequestState, WireError> {
        Ok(match self.u8()? {
            0 => RequestState::Unknown,
            1 => RequestState::Queued,
            2 => RequestState::Running {
                commits: self.u32()?,
            },
            3 => RequestState::Completed {
                digest: self.u64()?,
                output: self.tensor()?,
            },
            4 => RequestState::Aborted {
                breach: self.bool()?,
                detail: self.str()?,
            },
            5 => RequestState::Quarantined {
                detail: self.str()?,
            },
            tag => return Err(WireError::UnknownTag { tag }),
        })
    }
}

/// Tensor-value ceiling derived from the frame ceiling (one byte per
/// value, leaving header room).
const MAX_FRAME_VALUES: usize = crate::frame::MAX_FRAME - 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_sample() {
        let t = QTensor3::seeded(2, 3, 3, 7);
        let msgs = [
            Message::ClientHello {
                tenant: 3,
                client_nonce: 0xAB,
            },
            Message::Submit {
                request_id: 9,
                model: "tiny-cnn".into(),
                input: t.clone(),
            },
            Message::Status {
                request_id: 9,
                state: RequestState::Completed {
                    digest: 42,
                    output: t,
                },
            },
        ];
        for m in msgs {
            assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn hostile_payloads_fail_typed() {
        assert!(matches!(
            Message::decode(&[99]),
            Err(WireError::UnknownTag { tag: 99 })
        ));
        // Tensor with a hostile dimension.
        let mut b = vec![6u8];
        b.extend_from_slice(&1u64.to_le_bytes());
        b.extend_from_slice(&3u32.to_le_bytes());
        b.extend_from_slice(b"abc");
        b.extend_from_slice(&u32::MAX.to_le_bytes()); // c
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&1.0f32.to_bits().to_le_bytes());
        assert!(matches!(
            Message::decode(&b),
            Err(WireError::Malformed { .. })
        ));
        // Trailing bytes.
        let mut ok = Message::Drain.encode();
        ok.push(0);
        assert!(matches!(
            Message::decode(&ok),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }
}
