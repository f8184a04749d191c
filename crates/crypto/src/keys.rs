//! Key derivation for the secure NPU.
//!
//! The paper (§6.3) derives the execution key by concatenating the
//! accelerator's embedded secret id with a random number generated before
//! each execution, so the key is hardware-specific and changes per run.
//! We model this with a deterministic KDF over the two components (SHA-256
//! truncated to 128 bits), which keeps simulations reproducible while
//! preserving the property that either component changing changes the key.

use crate::sha256::Sha256;

/// The accelerator's embedded secret identity (`P` in the paper's MAC
/// formula, also a key-derivation input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceSecret(pub [u8; 16]);

impl DeviceSecret {
    /// Creates a secret from raw bytes (burned-in fuse value).
    #[must_use]
    pub fn new(bytes: [u8; 16]) -> Self {
        Self(bytes)
    }

    /// Derives a deterministic per-device secret from a test seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let digest = Sha256::digest(&seed.to_le_bytes());
        let mut out = [0u8; 16];
        out.copy_from_slice(&digest[..16]);
        Self(out)
    }

    /// Derives an isolated per-tenant sub-secret for multi-session
    /// serving: `trunc128(SHA256(secret ‖ "tenant" ‖ id))`. Each tenant
    /// session keys its AES engines and seals its journal under its own
    /// sub-secret, so no two tenants ever share a (key, counter) pair —
    /// the root secret never encrypts tenant data directly.
    #[must_use]
    pub fn derive_tenant(&self, tenant_id: u32) -> Self {
        let mut h = Sha256::new();
        h.update(&self.0);
        h.update(b"tenant");
        h.update(&tenant_id.to_le_bytes());
        let digest = h.finalize();
        let mut out = [0u8; 16];
        out.copy_from_slice(&digest[..16]);
        Self(out)
    }
}

/// A per-execution session key for the AES engines.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionKey(pub [u8; 16]);

impl std::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SessionKey").field(&"<redacted>").finish()
    }
}

impl SessionKey {
    /// Derives the execution key from the device secret and a boot-time
    /// random nonce: `trunc128(SHA256(secret ‖ nonce))`.
    #[must_use]
    pub fn derive(secret: &DeviceSecret, execution_nonce: u64) -> Self {
        let mut h = Sha256::new();
        h.update(&secret.0);
        h.update(&execution_nonce.to_le_bytes());
        let digest = h.finalize();
        let mut key = [0u8; 16];
        key.copy_from_slice(&digest[..16]);
        Self(key)
    }

    /// Derives the execution key for a *nonce epoch* — the
    /// crash-recovery refinement of [`SessionKey::derive`]. Epoch 0 is
    /// the plain per-execution key; every crash-resume bumps the epoch,
    /// so blocks re-encrypted after a power loss never share a
    /// (key, counter) pair with the interrupted epoch even when the
    /// version numbers repeat: `trunc128(SHA256(secret ‖ nonce ‖
    /// "epoch" ‖ e))` for `e > 0`.
    #[must_use]
    pub fn derive_epoch(secret: &DeviceSecret, execution_nonce: u64, epoch: u32) -> Self {
        if epoch == 0 {
            return Self::derive(secret, execution_nonce);
        }
        let mut h = Sha256::new();
        h.update(&secret.0);
        h.update(&execution_nonce.to_le_bytes());
        h.update(b"epoch");
        h.update(&epoch.to_le_bytes());
        let digest = h.finalize();
        let mut key = [0u8; 16];
        key.copy_from_slice(&digest[..16]);
        Self(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_changes_with_nonce_and_secret() {
        let s1 = DeviceSecret::from_seed(1);
        let s2 = DeviceSecret::from_seed(2);
        assert_ne!(SessionKey::derive(&s1, 0), SessionKey::derive(&s1, 1));
        assert_ne!(SessionKey::derive(&s1, 0), SessionKey::derive(&s2, 0));
        assert_eq!(SessionKey::derive(&s1, 7), SessionKey::derive(&s1, 7));
    }

    #[test]
    fn epoch_zero_is_the_plain_execution_key() {
        let s = DeviceSecret::from_seed(4);
        assert_eq!(
            SessionKey::derive_epoch(&s, 11, 0),
            SessionKey::derive(&s, 11)
        );
    }

    #[test]
    fn epochs_yield_pairwise_distinct_keys() {
        let s = DeviceSecret::from_seed(4);
        let keys: Vec<SessionKey> = (0..8)
            .map(|e| SessionKey::derive_epoch(&s, 11, e))
            .collect();
        for i in 0..keys.len() {
            for j in 0..i {
                assert_ne!(keys[i], keys[j], "epochs {i} and {j} must not collide");
            }
        }
        // Epochs are also nonce-specific.
        assert_ne!(
            SessionKey::derive_epoch(&s, 11, 1),
            SessionKey::derive_epoch(&s, 12, 1)
        );
    }

    #[test]
    fn tenant_secrets_are_pairwise_distinct_and_deterministic() {
        let root = DeviceSecret::from_seed(5);
        let tenants: Vec<DeviceSecret> = (0..8).map(|t| root.derive_tenant(t)).collect();
        for i in 0..tenants.len() {
            assert_ne!(tenants[i], root, "tenant {i} must not equal the root");
            for j in 0..i {
                assert_ne!(
                    tenants[i], tenants[j],
                    "tenants {i} and {j} must not collide"
                );
            }
        }
        assert_eq!(root.derive_tenant(3), root.derive_tenant(3));
        // Tenant derivation is root-specific: two devices never share a
        // tenant sub-secret.
        assert_ne!(
            DeviceSecret::from_seed(6).derive_tenant(3),
            root.derive_tenant(3)
        );
    }

    #[test]
    fn debug_redacts() {
        let key = SessionKey::derive(&DeviceSecret::from_seed(3), 9);
        assert!(format!("{key:?}").contains("redacted"));
    }
}
