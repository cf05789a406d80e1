//! One GeMM API, two substrates: build a request batch once, execute it
//! on the host-speed engine *and* on the cycle-accurate simulated CAMP
//! core, and verify the outputs are bit-identical — then stream the
//! same requests through a dispatcher session on the simulator.
//!
//! ```sh
//! cargo run --release --example backend_api
//! ```

use camp::core::backend::{CampBackend, ExecStats, SimBackend};
use camp::core::{CampEngine, DType, GemmRequest, Operand};
use camp::pipeline::{CoreConfig, SimStats};

fn tensor(len: usize, seed: i32) -> Vec<i8> {
    (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
}

/// A small attention-flavored batch on `backend`: two activations
/// against one weight matrix, registered once so both requests read the
/// one packed panel (the simulator still counts each GeMM, B pack
/// included, as the paper times it), plus a dense i4 problem.
fn build_requests(
    backend: &mut impl CampBackend,
    m: usize,
    n: usize,
    k: usize,
) -> Vec<GemmRequest> {
    let shared = backend.weights_mut().register(n, k, &tensor(k * n, 5), DType::I8);
    vec![
        GemmRequest::with_weights(m, tensor(m * k, 3), shared).expect("well-formed"),
        // same handle: the host packed B once, when it was registered
        GemmRequest::with_weights(m, tensor(m * k, 7), shared).expect("well-formed"),
        GemmRequest::builder()
            .m(m)
            .n(n)
            .k(k)
            .activation(tensor(m * k, 9))
            .weights(Operand::from_dense(tensor(k * n, 11)))
            .dtype(DType::I4) // 4-bit kernel, same surface
            .build()
            .expect("well-formed"),
    ]
}

fn describe<B: CampBackend>(backend: &B) {
    println!("  {}: {}", backend.name(), backend.kernel_info());
}

fn main() {
    let (m, n, k) = (16, 16, 64);
    let mut host = CampEngine::with_threads(2);
    let mut sim = SimBackend::new(CoreConfig::a64fx());
    let host_requests = build_requests(&mut host, m, n, k);
    let requests = build_requests(&mut sim, m, n, k);
    println!("one request batch ({} GeMMs), two backends:", requests.len());
    describe(&host);
    describe(&sim);

    // --- the same batch, both substrates, bit-identical outputs ---
    let fast = host.execute_batch(&host_requests).expect("host execution");
    let slow = sim.execute_batch(&requests).expect("simulated execution");
    assert_eq!(fast.outputs, slow.outputs, "substrates must agree bit-for-bit");
    println!("outputs identical across substrates: {} matrices", fast.outputs.len());

    // --- callers branch on stats, not on API ---
    for (who, stats) in [("host", &fast.stats), ("sim", &slow.stats)] {
        match stats {
            ExecStats::Host(s) => println!(
                "  {who}: {} camp issues, {} B-pack bytes (the dense i4 operand's panel)",
                s.camp_issues, s.packed_b_bytes
            ),
            ExecStats::Sim(s) => println!(
                "  {who}: {} simulated cycles, {} instructions, {:.2} IPC",
                s.cycles,
                s.insts,
                s.insts as f64 / s.cycles as f64
            ),
            // ExecStats is #[non_exhaustive]: future substrates land here
            other => println!("  {who}: {} MACs on an unknown substrate", other.macs()),
        }
    }

    // --- a simulated batch counts what its requests count alone ---
    let mut alone = SimStats::default();
    for i in 0..requests.len() {
        let mut fresh = SimBackend::new(CoreConfig::a64fx());
        let req = build_requests(&mut fresh, m, n, k).swap_remove(i);
        let solo = fresh.execute(&req).expect("simulated execution");
        alone.merge(solo.stats.as_sim().expect("sim stats"));
    }
    assert_eq!(slow.stats, ExecStats::Sim(alone), "a batch must count as its requests alone");
    println!("simulated batch stats equal the merge of each request run alone");

    // --- registered weights work on both substrates too ---
    let w = tensor(k * n, 13);
    let hh = host.weights_mut().register(n, k, &w, DType::I8);
    let sh = sim.weights_mut().register(n, k, &w, DType::I8);
    let a = tensor(m * k, 15);
    let host_req = GemmRequest::with_weights(m, a.clone(), hh).expect("well-formed");
    let sim_req = GemmRequest::with_weights(m, a, sh).expect("well-formed");
    let via_handle = host.execute(&host_req).expect("host execution");
    let sim_handle = sim.execute(&sim_req).expect("simulated execution");
    assert_eq!(via_handle.output, sim_handle.output);
    println!("registered-weight requests agree across substrates");

    // --- and the serving dispatcher is generic over the backend ---
    let dispatcher = sim.dispatch(); // submit/poll over the *simulator*
    let mut session = dispatcher.session();
    let ticket = session.submit(vec![sim_req]).expect("valid request");
    let outcome = session.wait(ticket).expect("batch completes");
    assert_eq!(outcome.outputs[0], via_handle.output);
    println!(
        "simulated serving session returned the same bytes ({} cycles simulated)",
        outcome.stats.as_sim().expect("sim stats").cycles
    );
    println!("OK: one request surface, host and simulated execution agree.");
}
