//! Challenge–response connection authentication.
//!
//! A connection claims a tenant id; the daemon answers with a fresh
//! challenge; the client proves possession of the tenant's *derived*
//! device key ([`DeviceSecret::derive_tenant`]) by returning a SHA-256
//! tag over a fixed domain string, the key bytes, and every nonce in
//! the exchange. Binding the proof to the derived key — the same key
//! that seals the tenant's pads and MACs — means wire identity and pad
//! isolation share one root of trust: a peer that cannot authenticate
//! cannot cause the scheduler to issue a single pad under that tenant's
//! key space.
//!
//! The daemon compares tags in constant time: an attacker probing one
//! byte at a time learns nothing from the rejection latency.

use seculator_core::splitmix;
use seculator_crypto::keys::DeviceSecret;
use seculator_crypto::Sha256;

/// Domain-separation string for the auth tag (versioned with the frame
/// grammar).
pub const AUTH_DOMAIN: &[u8] = b"seculator-wire-auth-v1";

/// The possession proof: `SHA-256(domain ‖ derived-key ‖ tenant ‖
/// challenge ‖ client-nonce ‖ server-nonce)`.
#[must_use]
pub fn auth_tag(
    derived: &DeviceSecret,
    tenant: u32,
    challenge: u64,
    client_nonce: u64,
    server_nonce: u64,
) -> [u8; 32] {
    Sha256::digest_parts(&[
        AUTH_DOMAIN,
        &derived.0,
        &tenant.to_le_bytes(),
        &challenge.to_le_bytes(),
        &client_nonce.to_le_bytes(),
        &server_nonce.to_le_bytes(),
    ])
}

/// Constant-time tag comparison (fold, don't short-circuit).
#[must_use]
pub(crate) fn tags_equal(a: &[u8; 32], b: &[u8; 32]) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// Expands one daemon seed into the device identity — the root secret
/// and base nonce — using the *exact* first two splitmix draws the
/// serve campaign makes from the same seed (the campaigns crate tests
/// that the two agree). One function, two callers (the daemon and
/// `seculator submit`), so the wire identity can never drift from the
/// serve-campaign identity for the same seed.
#[must_use]
pub fn wire_identity(seed: u64) -> (DeviceSecret, u64) {
    let mut rng = seed;
    let root = DeviceSecret::from_seed(splitmix(&mut rng));
    let base_nonce = splitmix(&mut rng);
    (root, base_nonce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_binds_every_input() {
        let secret = DeviceSecret::from_seed(1).derive_tenant(2);
        let base = auth_tag(&secret, 2, 3, 4, 5);
        assert_eq!(base, auth_tag(&secret, 2, 3, 4, 5));
        assert_ne!(base, auth_tag(&secret, 9, 3, 4, 5));
        assert_ne!(base, auth_tag(&secret, 2, 9, 4, 5));
        assert_ne!(base, auth_tag(&secret, 2, 3, 9, 5));
        assert_ne!(base, auth_tag(&secret, 2, 3, 4, 9));
        assert_ne!(base, auth_tag(&DeviceSecret::from_seed(9), 2, 3, 4, 5));
        assert!(tags_equal(&base, &base.clone()));
        let mut other = base;
        other[31] ^= 1;
        assert!(!tags_equal(&base, &other));
    }
}
