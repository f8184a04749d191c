//! Layer-level integrity verification (paper §6.4 and Equation 1).
//!
//! Four 256-bit registers replace TNPU/GuardNN's per-block MAC storage:
//!
//! - `MAC_W` — XOR of the MACs of every block *written* in layer `i`.
//! - `MAC_R` — XOR of the MACs of every partial ofmap block *read back*
//!   within layer `i`.
//! - `MAC_FR` — XOR of the MACs of every ifmap block *read for the first
//!   time* in layer `i+1` (computed with layer `i`'s id and final VN).
//! - `MAC_IR` — XOR of the MACs of *every* read of read-only data
//!   (ifmaps re-read beyond the first time, and filter weights).
//!
//! The layer-boundary check is `MAC_W = MAC_FR ⊕ MAC_R`. Because usage
//! overlaps (layer `i`'s `MAC_W` is still needed while layer `i+1` runs),
//! the verifier keeps **two pairs of registers that alternate across
//! layers**, exactly as the paper describes.

use seculator_crypto::xor_mac::MacRegister;

/// Outcome of a layer-boundary integrity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// `MAC_W = MAC_FR ⊕ MAC_R` held: everything written was read back
    /// (or first-read downstream) untampered.
    Verified,
    /// The equation failed — tampering, replay, or a swapped block. The
    /// paper's response is a system reboot.
    Breach,
}

impl VerifyOutcome {
    /// True when verification succeeded.
    #[must_use]
    pub fn is_verified(&self) -> bool {
        matches!(self, Self::Verified)
    }
}

/// Per-layer register bank (one of the two alternating sets).
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    mac_w: MacRegister,
    mac_r: MacRegister,
    mac_fr: MacRegister,
}

/// The alternating-bank layer MAC verifier.
///
/// # Examples
///
/// ```
/// use seculator_core::mac_verify::LayerMacVerifier;
///
/// let mut v = LayerMacVerifier::new();
/// v.begin_layer();
/// let mac = [7u8; 32];
/// v.on_write(&mac);
/// v.end_layer(); // first layer: trivially verified
/// // The next layer first-reads the block back...
/// v.begin_layer();
/// v.on_first_read(&mac);
/// assert!(v.end_layer().is_verified());
/// ```
///
/// Usage per layer `i`:
/// 1. [`LayerMacVerifier::begin_layer`].
/// 2. For every block written: [`LayerMacVerifier::on_write`].
/// 3. For every partial ofmap block read back: [`LayerMacVerifier::on_read`].
/// 4. For every ifmap block read for the first time (the previous
///    layer's output): [`LayerMacVerifier::on_first_read`] — this lands
///    in the *previous* layer's bank.
/// 5. At the end of layer `i`, layer `i-1`'s equation is closed:
///    [`LayerMacVerifier::end_layer`] returns its outcome.
///
/// After the last layer, the host drains the network output (reading
/// every final ofmap block via `on_first_read`) and calls
/// [`LayerMacVerifier::finish`].
#[derive(Debug, Clone)]
pub struct LayerMacVerifier {
    banks: [Bank; 2],
    /// Bank index of the layer currently executing.
    current: usize,
    /// Whether a previous layer's bank is pending verification.
    has_pending: bool,
    breaches: u64,
}

impl Default for LayerMacVerifier {
    fn default() -> Self {
        Self::new()
    }
}

impl LayerMacVerifier {
    /// Creates a verifier with both banks cleared.
    #[must_use]
    pub fn new() -> Self {
        Self {
            banks: [Bank::default(); 2],
            current: 0,
            has_pending: false,
            breaches: 0,
        }
    }

    /// Starts a new layer, rotating the banks.
    pub fn begin_layer(&mut self) {
        self.current ^= 1;
        self.banks[self.current] = Bank::default();
    }

    /// Absorbs the MAC of a block written by the current layer.
    pub fn on_write(&mut self, mac: &[u8; 32]) {
        self.banks[self.current].mac_w.absorb(mac);
    }

    /// Absorbs the MAC of a partially-computed ofmap block read back by
    /// the current layer.
    pub fn on_read(&mut self, mac: &[u8; 32]) {
        self.banks[self.current].mac_r.absorb(mac);
    }

    /// Absorbs the MAC of an ifmap block read *for the first time* by the
    /// current layer — it verifies the **previous** layer's writes, so it
    /// lands in the other bank's `MAC_FR`.
    pub fn on_first_read(&mut self, mac: &[u8; 32]) {
        self.banks[self.current ^ 1].mac_fr.absorb(mac);
    }

    /// Closes the *previous* layer's equation (if one is pending) and
    /// returns its outcome; the first layer of a network has no
    /// predecessor and returns `Verified` trivially.
    ///
    /// Call after the current layer's ifmap has been fully first-read
    /// (i.e., at the end of the current layer).
    pub fn end_layer(&mut self) -> VerifyOutcome {
        let outcome = if self.has_pending {
            self.check_bank(self.current ^ 1)
        } else {
            VerifyOutcome::Verified
        };
        self.has_pending = true;
        outcome
    }

    /// Closes the final layer's equation after the host has drained the
    /// network output through [`Self::on_first_read`]-style reads
    /// recorded with [`Self::record_output_drain`].
    pub fn finish(&mut self) -> VerifyOutcome {
        let outcome = self.check_bank(self.current);
        self.has_pending = false;
        outcome
    }

    /// Records the host's final read of an output block (closing the last
    /// layer's `MAC_FR`).
    pub fn record_output_drain(&mut self, mac: &[u8; 32]) {
        self.banks[self.current].mac_fr.absorb(mac);
    }

    /// Number of breaches detected so far.
    #[must_use]
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    fn check_bank(&mut self, idx: usize) -> VerifyOutcome {
        let b = &self.banks[idx];
        if b.mac_w == b.mac_fr.xor(&b.mac_r) {
            VerifyOutcome::Verified
        } else {
            self.breaches += 1;
            VerifyOutcome::Breach
        }
    }
}

/// Single-layer *eager* verifier used by the detect-and-recover driver
/// ([`crate::secure_infer::infer_journaled`] and [`crate::fault`]).
///
/// One instance covers one execution attempt of one layer, and the
/// equation `MAC_W = MAC_FR ⊕ MAC_R` is checked as soon as the layer's
/// final output has been read back — instead of deferring the check to
/// the next layer like [`LayerMacVerifier`]. Eager checking costs one
/// extra pass of reads per layer but is what makes *bounded* recovery
/// possible: a breach rolls back at most one layer, and the consumer can
/// re-fetch ([`EagerLayerVerifier::reset_first_reads`]) without touching
/// any other layer's registers.
#[derive(Debug, Clone, Default)]
pub struct EagerLayerVerifier {
    mac_w: MacRegister,
    mac_r: MacRegister,
    mac_fr: MacRegister,
}

impl EagerLayerVerifier {
    /// Creates a verifier with all registers cleared.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the MAC of a block written by this layer (any version).
    pub fn on_write(&mut self, mac: &[u8; 32]) {
        self.mac_w.absorb(mac);
    }

    /// Absorbs the MAC of a partial (non-final-version) block read back
    /// within the layer.
    pub fn on_read(&mut self, mac: &[u8; 32]) {
        self.mac_r.absorb(mac);
    }

    /// Absorbs the MAC of a final-version block read by the consumer.
    pub fn on_first_read(&mut self, mac: &[u8; 32]) {
        self.mac_fr.absorb(mac);
    }

    /// Clears `MAC_FR` so the consumer can re-fetch the whole output
    /// tensor after a failed [`EagerLayerVerifier::check`] — the recovery
    /// path for transient read corruption. `MAC_W`/`MAC_R` are
    /// untouched: the writes and in-layer read-backs already happened.
    pub fn reset_first_reads(&mut self) {
        self.mac_fr = MacRegister::new();
    }

    /// The layer-boundary equation: `MAC_W = MAC_FR ⊕ MAC_R`.
    #[must_use]
    pub fn check(&self) -> VerifyOutcome {
        if self.mac_w == self.mac_fr.xor(&self.mac_r) {
            VerifyOutcome::Verified
        } else {
            VerifyOutcome::Breach
        }
    }

    /// Exports the sealed register state `(MAC_W, MAC_R, MAC_FR)` for a
    /// layer-commit journal record ([`crate::journal`]). Registers are
    /// volatile: this snapshot is the *only* thing that survives a power
    /// loss, so the resume path rebuilds the verifier from it via
    /// [`EagerLayerVerifier::restore`].
    #[must_use]
    pub fn registers(&self) -> ([u8; 32], [u8; 32], [u8; 32]) {
        (self.mac_w.value(), self.mac_r.value(), self.mac_fr.value())
    }

    /// Rebuilds a verifier from journaled register contents. The resumed
    /// run typically restores `MAC_W`/`MAC_R`, clears `MAC_FR`, and
    /// replays the consumer's first reads against the pre-crash write
    /// set — any stale or tampered ciphertext then fails
    /// [`EagerLayerVerifier::check`] exactly as it would have before the
    /// crash.
    #[must_use]
    pub fn restore(mac_w: [u8; 32], mac_r: [u8; 32], mac_fr: [u8; 32]) -> Self {
        Self {
            mac_w: MacRegister::from_value(mac_w),
            mac_r: MacRegister::from_value(mac_r),
            mac_fr: MacRegister::from_value(mac_fr),
        }
    }

    /// Fault hook: glitches the `MAC_W` register by XOR-ing `mask` into
    /// it, modeling on-chip MAC-register corruption (the one fault class
    /// that strikes *inside* the trust boundary). A nonzero mask makes
    /// [`EagerLayerVerifier::check`] fail; re-execution (fresh registers)
    /// is the only recovery.
    pub fn corrupt_mac_w(&mut self, mask: &[u8; 32]) {
        self.mac_w.absorb(mask);
    }
}

/// Read-only data verifier (`MAC_IR`, paper §6.4 last paragraph): tracks
/// every read of a read-only tensor (weights, the input image). After the
/// layer, the register must equal either zero (every block read an even
/// number of times) or the tensor's aggregate first-read MAC (odd), and
/// the first-read aggregate must match the provisioned reference.
#[derive(Debug, Clone, Default)]
pub struct ReadOnlyVerifier {
    mac_ir: MacRegister,
    mac_fr: MacRegister,
}

impl ReadOnlyVerifier {
    /// Creates a cleared verifier.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs a read of a read-only block; `first` marks the first read
    /// of that block in this layer.
    pub fn on_read(&mut self, mac: &[u8; 32], first: bool) {
        self.mac_ir.absorb(mac);
        if first {
            self.mac_fr.absorb(mac);
        }
    }

    /// Verifies against the provisioned aggregate MAC of the tensor
    /// (XOR of all its block MACs, computed when the model was loaded).
    /// `odd_reads` says whether blocks were read an odd number of times.
    #[must_use]
    pub fn verify(&self, provisioned: &MacRegister, odd_reads: bool) -> VerifyOutcome {
        let fr_ok = self.mac_fr == *provisioned;
        let ir_ok = if odd_reads {
            self.mac_ir == self.mac_fr
        } else {
            self.mac_ir.is_zero()
        };
        if fr_ok && ir_ok {
            VerifyOutcome::Verified
        } else {
            VerifyOutcome::Breach
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_crypto::xor_mac::{block_mac, BlockMacInput};

    const SECRET: [u8; 16] = *b"verifier-secret!";

    fn mac(layer: u32, vn: u32, idx: u32, fill: u8) -> [u8; 32] {
        block_mac(
            BlockMacInput {
                device_secret: &SECRET,
                layer_id: layer,
                fmap_id: 7,
                version: vn,
                block_index: idx,
            },
            &[fill; 64],
        )
    }

    /// Drives two layers: layer 0 writes blocks 0..4 twice (vn 1 then 2),
    /// reading vn-1 back in between; layer 1 first-reads the final
    /// versions. Returns the verifier just before `finish`.
    fn run_two_layers(tamper: Option<usize>) -> (VerifyOutcome, VerifyOutcome, LayerMacVerifier) {
        let mut v = LayerMacVerifier::new();
        v.begin_layer(); // layer 0
        for i in 0..4 {
            v.on_write(&mac(0, 1, i, i as u8));
        }
        for i in 0..4 {
            v.on_read(&mac(0, 1, i, i as u8));
        }
        for i in 0..4 {
            v.on_write(&mac(0, 2, i, 10 + i as u8));
        }
        let first = v.end_layer(); // no predecessor → Verified

        v.begin_layer(); // layer 1
        for i in 0..4usize {
            let fill = if tamper == Some(i) { 99 } else { 10 + i as u8 };
            v.on_first_read(&mac(0, 2, i as u32, fill));
        }
        for i in 0..4 {
            v.on_write(&mac(1, 1, i, 50 + i as u8));
        }
        let second = v.end_layer(); // closes layer 0's equation
        (first, second, v)
    }

    #[test]
    fn untampered_two_layer_flow_verifies() {
        let (first, second, mut v) = run_two_layers(None);
        assert!(first.is_verified());
        assert!(second.is_verified());
        // Host drains layer 1's output.
        for i in 0..4 {
            v.record_output_drain(&mac(1, 1, i, 50 + i as u8));
        }
        assert!(v.finish().is_verified());
        assert_eq!(v.breaches(), 0);
    }

    #[test]
    fn tampered_first_read_breaks_previous_layers_equation() {
        let (_, second, _) = run_two_layers(Some(2));
        assert_eq!(second, VerifyOutcome::Breach);
    }

    #[test]
    fn missing_output_drain_is_a_breach() {
        let (_, _, mut v) = run_two_layers(None);
        for i in 0..3 {
            // one block short
            v.record_output_drain(&mac(1, 1, i, 50 + i as u8));
        }
        assert_eq!(v.finish(), VerifyOutcome::Breach);
    }

    #[test]
    fn replayed_stale_version_is_detected() {
        let mut v = LayerMacVerifier::new();
        v.begin_layer();
        v.on_write(&mac(0, 1, 0, 1));
        v.on_write(&mac(0, 2, 0, 2)); // overwrite with vn 2
        v.on_read(&mac(0, 1, 0, 1)); // legitimate partial read of vn 1
        v.end_layer();
        v.begin_layer();
        // Attacker replays the vn-1 ciphertext; decrypting under vn 2
        // yields garbage, but even a "lucky" attacker serving the *old
        // plaintext* is caught because the MAC binds the VN:
        v.on_first_read(&mac(0, 1, 0, 1));
        assert_eq!(v.end_layer(), VerifyOutcome::Breach);
    }

    #[test]
    fn readonly_verifier_accepts_even_and_odd_read_counts() {
        let m0 = mac(0, 1, 0, 3);
        let m1 = mac(0, 1, 1, 4);
        let mut provisioned = MacRegister::new();
        provisioned.absorb(&m0);
        provisioned.absorb(&m1);

        // Odd (single) reads.
        let mut v = ReadOnlyVerifier::new();
        v.on_read(&m0, true);
        v.on_read(&m1, true);
        assert!(v.verify(&provisioned, true).is_verified());

        // Even reads: each block twice.
        let mut v2 = ReadOnlyVerifier::new();
        for first in [true, false] {
            v2.on_read(&m0, first);
            v2.on_read(&m1, first);
        }
        assert!(v2.verify(&provisioned, false).is_verified());
    }

    #[test]
    fn readonly_verifier_detects_mid_stream_tamper() {
        let m0 = mac(0, 1, 0, 3);
        let tampered = mac(0, 1, 0, 77);
        let mut provisioned = MacRegister::new();
        provisioned.absorb(&m0);
        let mut v = ReadOnlyVerifier::new();
        v.on_read(&m0, true); // first read sees good data
        v.on_read(&tampered, false); // attacker flips bits before re-read
        assert_eq!(v.verify(&provisioned, false), VerifyOutcome::Breach);
    }

    #[test]
    fn eager_verifier_balances_two_version_write_plan() {
        let mut v = EagerLayerVerifier::new();
        for i in 0..4 {
            v.on_write(&mac(0, 1, i, i as u8)); // partial version
        }
        for i in 0..4 {
            v.on_read(&mac(0, 1, i, i as u8)); // read back
        }
        for i in 0..4 {
            v.on_write(&mac(0, 2, i, 10 + i as u8)); // final version
        }
        for i in 0..4 {
            v.on_first_read(&mac(0, 2, i, 10 + i as u8)); // consumer
        }
        assert!(v.check().is_verified());
    }

    #[test]
    fn eager_verifier_refetch_recovers_transient_read_corruption() {
        let mut v = EagerLayerVerifier::new();
        v.on_write(&mac(0, 1, 0, 5));
        // First consume pass sees corrupted data.
        v.on_first_read(&mac(0, 1, 0, 99));
        assert_eq!(v.check(), VerifyOutcome::Breach);
        // Refetch: clear MAC_FR, read again, now clean.
        v.reset_first_reads();
        v.on_first_read(&mac(0, 1, 0, 5));
        assert!(v.check().is_verified());
    }

    #[test]
    fn eager_verifier_detects_mac_register_glitch() {
        let mut v = EagerLayerVerifier::new();
        v.on_write(&mac(0, 1, 0, 5));
        v.on_first_read(&mac(0, 1, 0, 5));
        assert!(v.check().is_verified());
        let mut mask = [0u8; 32];
        mask[17] = 0x40;
        v.corrupt_mac_w(&mask);
        assert_eq!(v.check(), VerifyOutcome::Breach);
        // Refetching cannot fix a register glitch.
        v.reset_first_reads();
        v.on_first_read(&mac(0, 1, 0, 5));
        assert_eq!(v.check(), VerifyOutcome::Breach);
    }

    #[test]
    fn eager_verifier_snapshot_restore_roundtrips_across_a_crash() {
        let mut v = EagerLayerVerifier::new();
        for i in 0..4 {
            v.on_write(&mac(2, 1, i, i as u8));
        }
        for i in 0..4 {
            v.on_read(&mac(2, 1, i, i as u8));
        }
        for i in 0..4 {
            v.on_write(&mac(2, 2, i, 20 + i as u8));
        }
        let (w, r, fr) = v.registers();
        assert_eq!(fr, [0u8; 32], "no first reads absorbed yet");
        // "Power loss": the verifier is dropped; a resumed run restores
        // the sealed registers and replays the consumer's first reads.
        let mut resumed = EagerLayerVerifier::restore(w, r, [0u8; 32]);
        for i in 0..4 {
            resumed.on_first_read(&mac(2, 2, i, 20 + i as u8));
        }
        assert!(resumed.check().is_verified());
        // A stale (pre-final) block replayed to the resumed verifier is
        // still caught.
        let mut stale = EagerLayerVerifier::restore(w, r, [0u8; 32]);
        stale.on_first_read(&mac(2, 1, 0, 0));
        for i in 1..4 {
            stale.on_first_read(&mac(2, 2, i, 20 + i as u8));
        }
        assert_eq!(stale.check(), VerifyOutcome::Breach);
    }

    #[test]
    fn readonly_verifier_detects_pre_stream_tamper() {
        let tampered = mac(0, 1, 0, 77);
        let m0 = mac(0, 1, 0, 3);
        let mut provisioned = MacRegister::new();
        provisioned.absorb(&m0);
        let mut v = ReadOnlyVerifier::new();
        v.on_read(&tampered, true);
        v.on_read(&tampered, false);
        // MAC_IR cancels (even reads of identical data) but the
        // first-read aggregate no longer matches the provisioned MAC.
        assert_eq!(v.verify(&provisioned, false), VerifyOutcome::Breach);
    }
}
