// D2 fixture: HashMap iteration whose order can leak into outputs.
use std::collections::HashMap;

fn dump(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, _) in m {
        // line 6: finding — iteration order reaches the output Vec
        out.push(*k);
    }
    out
}

fn sorted_keys(m: &HashMap<u32, u32>) -> Vec<u32> {
    let mut ks: Vec<u32> = m.keys().copied().collect();
    ks.sort_unstable(); // next-statement sort: site above is safe
    ks
}

fn size(m: &HashMap<u32, u32>) -> usize {
    m.iter().count() // order-insensitive reduction: safe
}

fn total(m: &HashMap<u32, u32>) -> u32 {
    // lint:allow(unordered-iter): fixture — summation is order-insensitive for u32
    m.values().sum()
}
