//! Prints the two JSON documents whose strings come from outside the
//! writer's control — a flight-recorder dump whose reason carries a
//! control character, and a Chrome export whose label spans two lines
//! — one per line, so CI can feed each to a real JSON parser.

use rips_trace::{FlightRecorder, TraceBuffer, TraceEvent, TraceSink};

fn main() {
    let mut flight = FlightRecorder::new(1, 4);
    flight.record(1, 0, TraceEvent::QueueDepth { depth: 2 });
    println!("{}", flight.dump_json("stall\u{7}"));

    let mut buf = TraceBuffer::new();
    buf.record(1, 0, TraceEvent::QueueDepth { depth: 2 });
    println!(
        "{}",
        buf.chrome_json("two\nlines \"quoted\" back\\slash", 2)
    );
}
