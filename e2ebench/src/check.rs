//! Correctness gates: flat-reference agreement within the differential
//! harness's tolerance, and bit-identity of repeated results by hash.

use hisvsim_circuit::generators;
use hisvsim_statevec::{run_circuit, StateVector};

/// Tolerance against the flat reference (the differential harness's `TOL`).
pub const TOL: f64 = 1e-9;

/// A 64-bit hash of the exact amplitude bits (FNV-style multiply-xor over
/// the `f64` bit patterns). Two states hash equal only if every bit agrees,
/// barring a hash collision.
pub fn state_hash(state: &StateVector) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ state.len() as u64;
    for amp in state.amplitudes() {
        for word in [amp.re.to_bits(), amp.im.to_bits()] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            h ^= h >> 29;
        }
    }
    h
}

/// `Ok` when `got` matches the reference within [`TOL`]; otherwise the
/// largest deviation, for the report.
pub fn near_reference(got: &StateVector, reference: &StateVector) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "state has {} amplitudes, reference {}",
            got.len(),
            reference.len()
        ));
    }
    if got.approx_eq(reference, TOL) {
        Ok(())
    } else {
        Err(format!(
            "max |Δ| = {:.3e} against the flat reference",
            got.max_abs_diff(reference)
        ))
    }
}

/// Negative control for the smoke mode: a state with one flipped mantissa
/// bit must fail the hash gate, and one off by 1e-6 must fail the tolerance
/// gate. Returns what went unnoticed, if anything.
pub fn gates_catch_wrong_results() -> Result<(), String> {
    let state = run_circuit(&generators::qft(6));
    let mut amps = state.amplitudes().to_vec();
    amps[5].re = f64::from_bits(amps[5].re.to_bits() ^ 1);
    if state_hash(&state) == state_hash(&StateVector::from_amplitudes(amps.clone())) {
        return Err("a one-bit change kept the amplitude hash".to_string());
    }
    amps[5].re += 1e-6;
    if near_reference(&StateVector::from_amplitudes(amps), &state).is_ok() {
        return Err("a 1e-6 error passed the reference check".to_string());
    }
    near_reference(&state, &state)
}
