//! Bit pins of the synthetic generator: digests of `generate`'s features
//! and labels, recorded from the single-pass sequential generator before
//! it split into a serial latent pass and a threaded noise pass. Any
//! change to the stream layout, the sampler or the row arithmetic moves
//! them, and with them every downstream state, Gram entry and model.

use qk_data::{generate, Label, SyntheticConfig};

/// FNV-1a over every feature's bits (row-major, little-endian), then one
/// byte per label (1 = illicit).
fn digest(config: &SyntheticConfig) -> u64 {
    let data = generate(config);
    let features = data
        .features
        .iter()
        .flatten()
        .flat_map(|x| x.to_bits().to_le_bytes());
    let labels = data.labels.iter().map(|l| u8::from(*l == Label::Illicit));
    features.chain(labels).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn small_configs_keep_their_bits() {
    for (seed, want) in [
        (0, 0x91cc_b090_40db_f9a6),
        (1, 0x12b6_910b_fd4c_97c0),
        (7, 0x2483_2a1a_a400_b872),
        (42, 0xcf33_bcee_b745_517c),
    ] {
        let got = digest(&SyntheticConfig::small(seed));
        assert_eq!(got, want, "small({seed}): {got:#018x}");
    }
}

#[test]
fn a_mid_size_config_keeps_its_bits() {
    // 2,000 rows: enough for several stream blocks per row and uneven
    // thread blocks, small enough for a debug build.
    let config = SyntheticConfig {
        num_features: 20,
        num_illicit: 600,
        num_licit: 1_400,
        latent_dim: 6,
        noise: 0.5,
        seed: 5,
    };
    let got = digest(&config);
    assert_eq!(got, 0x72fb_7d25_dd27_80ec, "{got:#018x}");
}
