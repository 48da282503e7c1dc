//! Prints a Chrome export whose label, a string from outside the
//! writer's control, spans two lines and carries a quote and a
//! backslash, so CI can feed it to a real JSON parser.

use rips_trace::{TraceBuffer, TraceEvent, TraceSink};

fn main() {
    let mut buf = TraceBuffer::new();
    buf.record(1, 0, TraceEvent::QueueDepth { depth: 2 });
    println!(
        "{}",
        buf.chrome_json("two\nlines \"quoted\" back\\slash", 2)
    );
}
