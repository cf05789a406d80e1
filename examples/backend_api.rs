//! One GeMM API, two substrates: build a request batch once, execute it
//! on the host-speed engine *and* on the cycle-accurate simulated CAMP
//! core, and verify the outputs are bit-identical — then stream the
//! same requests through a dispatcher session on the simulator.
//!
//! ```sh
//! cargo run --release --example backend_api
//! ```

use std::sync::Arc;

use camp::core::backend::{CampBackend, ExecStats, SimBackend};
use camp::core::{CampEngine, DType, GemmRequest, Operand};
use camp::pipeline::{CoreConfig, SimStats};

fn tensor(len: usize, seed: i32) -> Vec<i8> {
    (0..len).map(|i| ((i as i32 * seed) % 16 - 8) as i8).collect()
}

/// A small attention-flavored batch: two activations against one shared
/// weight matrix (the host packs it once; the simulator counts each
/// GeMM, B pack included, as the paper times it), plus an i4 problem.
fn build_requests(m: usize, n: usize, k: usize) -> Vec<GemmRequest> {
    let shared: Arc<[i8]> = tensor(k * n, 5).into();
    vec![
        GemmRequest::builder()
            .m(m)
            .n(n)
            .k(k)
            .activation(tensor(m * k, 3))
            .weights(Operand::Dense(Arc::clone(&shared)))
            .build()
            .expect("well-formed"),
        GemmRequest::builder()
            .m(m)
            .n(n)
            .k(k)
            .activation(tensor(m * k, 7))
            .weights(Operand::Dense(shared)) // same buffer: the host packs B once
            .build()
            .expect("well-formed"),
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
    let requests = build_requests(m, n, k);

    let mut host = CampEngine::with_threads(2);
    let mut sim = SimBackend::new(CoreConfig::a64fx());
    println!("one request batch ({} GeMMs), two backends:", requests.len());
    describe(&host);
    describe(&sim);

    // --- the same batch, both substrates, bit-identical outputs ---
    let fast = host.execute_batch(&requests).expect("host execution");
    let slow = sim.execute_batch(&requests).expect("simulated execution");
    assert_eq!(fast.outputs, slow.outputs, "substrates must agree bit-for-bit");
    println!("outputs identical across substrates: {} matrices", fast.outputs.len());

    // --- callers branch on stats, not on API ---
    for (who, stats) in [("host", &fast.stats), ("sim", &slow.stats)] {
        match stats {
            ExecStats::Host(s) => println!(
                "  {who}: {} camp issues, {} B-pack bytes (shared weight packed once)",
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
    for req in &requests {
        let solo = SimBackend::new(CoreConfig::a64fx()).execute(req).expect("simulated execution");
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
