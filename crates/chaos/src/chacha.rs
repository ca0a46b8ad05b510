//! A minimal ChaCha8 block function for fault-schedule decisions.
//!
//! Hand-rolled (the crate is zero-dependency by design) and used as a
//! pure keyed function, not a stream cipher: every fault decision is
//! `block(key(seed), occurrence, nonce(site))[0]`, so the schedule is a
//! function of `(seed, site, occurrence)` alone and replays bitwise on
//! any platform, thread count or interleaving.

/// The "expand 32-byte k" constants.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One ChaCha8 block: 4 double-rounds over the standard 4x4 state, then
/// the feed-forward addition.
pub(crate) fn block(key: &[u32; 8], counter: u64, nonce: u64) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[..4].copy_from_slice(&SIGMA);
    s[4..12].copy_from_slice(key);
    s[12] = counter as u32;
    s[13] = (counter >> 32) as u32;
    s[14] = nonce as u32;
    s[15] = (nonce >> 32) as u32;
    let input = s;
    for _ in 0..4 {
        // Column round.
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        // Diagonal round.
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for (word, start) in s.iter_mut().zip(input) {
        *word = word.wrapping_add(start);
    }
    s
}

/// Expands a 64-bit seed into a ChaCha key via splitmix64 — the standard
/// seed-stretching finalizer, good enough to decorrelate nearby seeds.
pub(crate) fn key_from_seed(seed: u64) -> [u32; 8] {
    let mut key = [0u32; 8];
    let mut x = seed;
    for pair in key.chunks_mut(2) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        pair[0] = z as u32;
        pair[1] = (z >> 32) as u32;
    }
    key
}

/// FNV-1a 64 over a site name: the per-site stream nonce.
pub(crate) fn site_nonce(site: &str) -> u64 {
    crate::durable::fnv1a64(site.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_deterministic_and_key_sensitive() {
        let k = key_from_seed(42);
        assert_eq!(block(&k, 0, 1), block(&k, 0, 1));
        assert_ne!(block(&k, 0, 1), block(&k, 1, 1));
        assert_ne!(block(&k, 0, 1), block(&k, 0, 2));
        assert_ne!(block(&key_from_seed(43), 0, 1), block(&k, 0, 1));
    }

    #[test]
    fn words_are_roughly_uniform() {
        // Sanity, not a statistical test: over 4096 draws the top bit
        // should be set close to half the time.
        let k = key_from_seed(7);
        let ones: u32 = (0..4096).map(|i| block(&k, i, 0)[0] >> 31).sum();
        assert!((1500..=2600).contains(&ones), "top-bit count {ones}");
    }

    #[test]
    fn site_nonce_separates_names() {
        assert_ne!(site_nonce("gram.ckpt.store"), site_nonce("gram.ckpt.load"));
        assert_eq!(site_nonce("x"), site_nonce("x"));
    }
}
