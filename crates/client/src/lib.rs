//! # seculator-client
//!
//! Typed client for the `SWP1` wire protocol: the request/response API
//! (`authenticate` / `submit` / `poll` / `abort` / `drain`) over any
//! [`Wire`] transport — the real TCP pipe for `seculator submit`, or
//! the deterministic loopback the daemon campaign (in the
//! `seculator-campaigns` crate) and the conformance suite drive.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Client code paths also face a hostile peer (a daemon can lie);
// failures surface as `ClientError`, never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use seculator_compute::quant::QTensor3;
use seculator_crypto::keys::DeviceSecret;
use seculator_wire::{auth_tag, Message, RequestState, Wire, WireError};

/// Every way a client call fails.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The daemon rejected the possession proof.
    AuthRejected(String),
    /// The daemon refused the request (draining, busy tenant, unknown
    /// model, shape mismatch…).
    Rejected(String),
    /// The daemon answered out of protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::AuthRejected(r) => write!(f, "authentication rejected: {r}"),
            Self::Rejected(r) => write!(f, "request rejected: {r}"),
            Self::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// A typed client bound to one tenant over one connection.
#[derive(Debug)]
pub struct Client<W: Wire> {
    wire: W,
    tenant: u32,
}

impl<W: Wire> Client<W> {
    /// Wraps a connected transport for one tenant.
    pub fn new(wire: W, tenant: u32) -> Self {
        Self { wire, tenant }
    }

    /// The tenant this client claims.
    #[must_use]
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Runs the challenge–response handshake, proving possession of
    /// the tenant's *derived* device key.
    pub fn authenticate(
        &mut self,
        derived: &DeviceSecret,
        client_nonce: u64,
    ) -> Result<(), ClientError> {
        self.wire.send(&Message::ClientHello {
            tenant: self.tenant,
            client_nonce,
        })?;
        let (challenge, server_nonce) = match self.wire.recv()? {
            Message::ServerChallenge {
                challenge,
                server_nonce,
            } => (challenge, server_nonce),
            Message::AuthReject { reason } => return Err(ClientError::AuthRejected(reason)),
            other => return Err(protocol(&other)),
        };
        self.wire.send(&Message::AuthProof {
            tag: auth_tag(derived, self.tenant, challenge, client_nonce, server_nonce),
        })?;
        match self.wire.recv()? {
            Message::AuthOk { tenant } if tenant == self.tenant => Ok(()),
            Message::AuthReject { reason } => Err(ClientError::AuthRejected(reason)),
            other => Err(protocol(&other)),
        }
    }

    /// Fires a submit without waiting for the acknowledgment — how the
    /// conformance campaign gets many tenants' submissions into flight
    /// at once so the seeded loopback interleaving has something to
    /// shuffle. Pair with [`Self::await_submit`].
    pub fn submit_async(
        &mut self,
        request_id: u64,
        model: &str,
        input: QTensor3,
    ) -> Result<(), ClientError> {
        self.wire.send(&Message::Submit {
            request_id,
            model: model.to_string(),
            input,
        })?;
        Ok(())
    }

    /// Waits for the acknowledgment of [`Self::submit_async`]; returns
    /// the scheduler round the request was queued at.
    pub fn await_submit(&mut self, request_id: u64) -> Result<u64, ClientError> {
        match self.wire.recv()? {
            Message::SubmitAck {
                request_id: id,
                queued_round,
            } if id == request_id => Ok(queued_round),
            Message::SubmitReject {
                request_id: id,
                reason,
            } if id == request_id => Err(ClientError::Rejected(reason)),
            other => Err(protocol(&other)),
        }
    }

    /// Submits one inference request and waits for admission.
    pub fn submit(
        &mut self,
        request_id: u64,
        model: &str,
        input: QTensor3,
    ) -> Result<u64, ClientError> {
        self.submit_async(request_id, model, input)?;
        self.await_submit(request_id)
    }

    /// Reports the current state of one request.
    pub fn poll(&mut self, request_id: u64) -> Result<RequestState, ClientError> {
        self.wire.send(&Message::Poll { request_id })?;
        match self.wire.recv()? {
            Message::Status {
                request_id: id,
                state,
            } if id == request_id => Ok(state),
            other => Err(protocol(&other)),
        }
    }

    /// Polls until the request is terminal (completed / aborted /
    /// quarantined / unknown), bounded by `max_polls` as a hang guard.
    pub fn wait_terminal(
        &mut self,
        request_id: u64,
        max_polls: u64,
    ) -> Result<RequestState, ClientError> {
        for _ in 0..max_polls {
            match self.poll(request_id)? {
                RequestState::Queued | RequestState::Running { .. } => {}
                terminal => return Ok(terminal),
            }
        }
        Err(ClientError::Protocol(format!(
            "request {request_id} not terminal after {max_polls} polls"
        )))
    }

    /// Requests a fail-closed abort of one in-flight request; `true`
    /// when the daemon cancelled it.
    pub fn abort(&mut self, request_id: u64) -> Result<bool, ClientError> {
        self.wire.send(&Message::Abort { request_id })?;
        match self.wire.recv()? {
            Message::AbortAck {
                request_id: id,
                cancelled,
            } if id == request_id => Ok(cancelled),
            other => Err(protocol(&other)),
        }
    }

    /// Asks the daemon to drain gracefully; returns the number of
    /// durable flushes performed.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.wire.send(&Message::Drain)?;
        match self.wire.recv()? {
            Message::DrainAck { flushed } => Ok(flushed),
            other => Err(protocol(&other)),
        }
    }
}

fn protocol(msg: &Message) -> ClientError {
    ClientError::Protocol(format!("unexpected reply: {msg:?}"))
}
