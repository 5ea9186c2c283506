//! Frame throughput on the wire protocol's largest messages: an
//! 11,218-float `SubmitUpdate` (one participant's upload at the
//! `federate_adult` model's size, a 44,889-byte payload) and the
//! `RoundComplete` carrying the fused vector back. Each is timed three
//! ways: the frame checksum alone, `frame` (encode plus checksum into one
//! buffer) and `read_frame` (checksum verification plus decode). perfbench's
//! `fl.wire.codec_us.*` times `encode`/`decode` only, so these are the
//! numbers for the framing around them.

use ctfl_fl::wire::{self, Message};
use ctfl_rng::rngs::StdRng;
use ctfl_rng::{Rng, SeedableRng};
use ctfl_testkit::{black_box, Bencher};

/// Parameters of the `federate_adult` model.
const DIM: usize = 11_218;

fn main() {
    let mut rng = StdRng::seed_from_u64(11_218);
    let params: Vec<f32> = (0..DIM).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    let messages = [
        (
            "update",
            Message::SubmitUpdate { session: 1, client: 3, weight: 814, params: params.clone() },
        ),
        ("round_complete", Message::RoundComplete { session: 1, params }),
    ];
    let mut group = Bencher::new("wire_11218_floats");
    group.sample_size(200);
    for (name, msg) in &messages {
        let payload = wire::encode(msg);
        let frame = wire::frame(msg).expect("frame under MAX_FRAME");
        group.bench(&format!("{name}/checksum"), || wire::frame_checksum(black_box(&payload)));
        group.bench(&format!("{name}/frame"), || wire::frame(black_box(msg)).expect("frames"));
        group.bench(&format!("{name}/read_frame"), || {
            wire::read_frame(&mut black_box(frame.as_slice())).expect("decodes")
        });
    }
}
