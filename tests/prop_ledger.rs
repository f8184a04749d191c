//! The identity-keyed `PadLedger` counts exactly what a flat per-pad set
//! counts. A reference model keeps one `HashSet` entry per issued pad,
//! keyed `(secret, nonce, epoch, coords)`; seeded sequences of `absorb`
//! and `insert` drive both, and `(pads, collisions)` must agree after
//! every step. The sequences draw from small pools, so key identities
//! repeat, pad sets overlap, and equal coordinates recur under
//! different secrets, nonces and epochs.

use std::collections::HashSet;

use seculator::core::{splitmix, BlockCoords, PadLedger, PadTracker, SecureSession};
use seculator::crypto::keys::DeviceSecret;

/// The full identity of one pad, as the ledger kept it before it was
/// keyed by key identity.
type PadKey = (DeviceSecret, u64, u32, BlockCoords);

/// One `HashSet` entry per pad ever recorded.
#[derive(Default)]
struct Reference {
    pads: HashSet<PadKey>,
    collisions: u64,
}

impl Reference {
    fn insert(&mut self, pad: PadKey) -> bool {
        let fresh = self.pads.insert(pad);
        if !fresh {
            self.collisions += 1;
        }
        fresh
    }

    fn absorb(&mut self, session: &SecureSession, tracker: &PadTracker) {
        for &(epoch, coords) in tracker.issued() {
            self.insert((session.secret, session.nonce, epoch, coords));
        }
    }

    fn counts(&self) -> (u64, u64) {
        (self.pads.len() as u64, self.collisions)
    }
}

fn draw(rng: &mut u64, n: u64) -> u64 {
    splitmix(rng) % n
}

/// A pad from a narrow pool (sets overlap) or a wide one (sets are
/// mostly disjoint).
fn pad(rng: &mut u64, wide: bool) -> (u32, BlockCoords) {
    let span = if wide { 1024 } else { 6 };
    (
        draw(rng, 3) as u32,
        BlockCoords {
            fmap_id: draw(rng, 2) as u32,
            layer_id: draw(rng, 2) as u32,
            version: draw(rng, 3) as u32,
            block_index: draw(rng, span) as u32,
        },
    )
}

#[test]
fn identity_keyed_ledger_matches_the_per_pad_set() {
    let secrets: Vec<DeviceSecret> = (0..3).map(DeviceSecret::from_seed).collect();
    // Absorbs of a new identity, absorbs of a known one, and inserts:
    // the property must see all three.
    let (mut fresh_absorbs, mut repeat_absorbs, mut inserts) = (0, 0, 0);
    for seed in 0..300u64 {
        let mut rng = seed;
        let mut ledger = PadLedger::new();
        let mut reference = Reference::default();
        let mut identities = HashSet::new();
        for step in 0..40 {
            let session = SecureSession {
                secret: secrets[draw(&mut rng, 3) as usize],
                nonce: draw(&mut rng, 3),
                shift: 0,
            };
            if draw(&mut rng, 4) == 0 {
                let (epoch, coords) = pad(&mut rng, false);
                assert_eq!(
                    ledger.insert(session.secret, session.nonce, epoch, coords),
                    reference.insert((session.secret, session.nonce, epoch, coords)),
                    "seed {seed} step {step}: insert verdict"
                );
                inserts += 1;
            } else {
                let wide = draw(&mut rng, 2) == 0;
                let mut tracker = PadTracker::new();
                for _ in 0..draw(&mut rng, 24) {
                    let (epoch, coords) = pad(&mut rng, wide);
                    tracker.preload(epoch, coords);
                }
                ledger.absorb(&session, &tracker);
                reference.absorb(&session, &tracker);
                if identities.contains(&(session.secret, session.nonce)) {
                    repeat_absorbs += 1;
                } else {
                    fresh_absorbs += 1;
                }
            }
            identities.insert((session.secret, session.nonce));
            assert_eq!(
                (ledger.pads(), ledger.collisions()),
                reference.counts(),
                "seed {seed} step {step}"
            );
        }
    }
    assert!(fresh_absorbs > 0 && repeat_absorbs > 0 && inserts > 0);
}
