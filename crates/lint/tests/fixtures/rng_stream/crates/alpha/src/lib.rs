// D3 fixture: the RNG stream-domain registry.
pub const STREAM_PLAN: u64 = 1 << 40;
pub const STREAM_EDGE: u64 = 2 << 40;
pub const STREAM_DUP: u64 = 1 << 40; // line 4: finding — collides with STREAM_PLAN
pub const STREAM_RUNTIME: u64 = seed_from_env(); // line 5: finding — not a literal

fn draw(seed: u64, d: u64) -> u64 {
    let a = Rng::stream(seed, STREAM_PLAN); // registered constant: ok
    let b = Rng::stream(seed, 7); // integer literal: ok
    let c = Rng::stream(seed, d); // line 10: finding — unregistered domain
    a ^ b ^ c
}
