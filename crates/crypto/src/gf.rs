//! Arithmetic in the AES finite field GF(2^8).
//!
//! The AES field uses the irreducible polynomial
//! `x^8 + x^4 + x^3 + x + 1` (0x11B). These helpers are used both by the
//! AES round functions ([`crate::aes`]) and to *derive* the S-box at
//! startup instead of transcribing a 256-entry table, which keeps the
//! implementation auditable against FIPS-197.

/// Multiply two elements of GF(2^8) modulo `x^8 + x^4 + x^3 + x + 1`.
///
/// # Examples
///
/// ```
/// use seculator_crypto::gf::gf_mul;
/// // {53} * {CA} = {01} (they are multiplicative inverses, FIPS-197 §4.2)
/// assert_eq!(gf_mul(0x53, 0xCA), 0x01);
/// ```
#[inline]
#[must_use]
pub const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc: u8 = 0;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1B;
        }
        b >>= 1;
        i += 1;
    }
    acc
}

/// Multiplicative inverse in GF(2^8), with the AES convention that the
/// inverse of 0 is 0.
///
/// Computed as `a^254` (Fermat: the multiplicative group has order 255).
#[inline]
#[must_use]
pub const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 by square-and-multiply over the 8-bit exponent 0b1111_1110.
    let mut result: u8 = 1;
    let mut base = a;
    let mut exp: u32 = 254;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// The AES S-box affine transformation applied to `b`:
/// `b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63`.
#[inline]
#[must_use]
pub const fn sbox_affine(b: u8) -> u8 {
    b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63
}

/// Forward S-box value for one byte: affine transform of the field inverse.
#[inline]
#[must_use]
pub const fn sbox_byte(x: u8) -> u8 {
    sbox_affine(gf_inv(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_mul_matches_fips_example() {
        // FIPS-197 §4.2: {57} * {83} = {c1}
        assert_eq!(gf_mul(0x57, 0x83), 0xC1);
        // {57} * {13} = {fe}
        assert_eq!(gf_mul(0x57, 0x13), 0xFE);
    }

    #[test]
    fn gf_mul_commutative_and_identity() {
        for a in 0..=255u8 {
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(1, a), a);
            for b in [0u8, 1, 2, 3, 0x53, 0x80, 0xFF] {
                assert_eq!(gf_mul(a, b), gf_mul(b, a));
            }
        }
    }

    #[test]
    fn gf_inv_is_involutive_inverse() {
        for a in 1..=255u8 {
            let inv = gf_inv(a);
            assert_eq!(gf_mul(a, inv), 1, "a={a:#x}");
            assert_eq!(gf_inv(inv), a);
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn sbox_known_entries() {
        // FIPS-197 Figure 7 spot checks.
        assert_eq!(sbox_byte(0x00), 0x63);
        assert_eq!(sbox_byte(0x01), 0x7C);
        assert_eq!(sbox_byte(0x53), 0xED);
        assert_eq!(sbox_byte(0xFF), 0x16);
    }
}
