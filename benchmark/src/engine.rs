//! `Transcoder` wrappers: a timing wrapper placed around the real engine,
//! and the null transcoder the two coordination workloads run instead of
//! it.

use std::sync::Arc;

use vbench::engine::{
    StreamOutcome, TranscodeError, TranscodeOutcome, TranscodeRequest, Transcoder,
};
use vbench::measure::Measurement;
use vcodec::{EncodeOutput, EncodeStats};
use vframe::source::FrameSource;
use vframe::{Frame, Resolution, Video};
use vhw::StageSeconds;

use crate::clock;
use crate::record::{Event, Kind, Recorder};

/// Counts every call into `inner` and, when the recorder is tracing, times
/// it (and the frame pulls a streaming call makes) from outside.
pub struct TimedTranscoder<'a> {
    pub inner: &'a dyn Transcoder,
    pub recorder: Arc<Recorder>,
}

impl TimedTranscoder<'_> {
    fn record(&self, start_ns: u64, pixels: u64, encode_secs: f64, source_ns: u64) {
        self.recorder.push(Event {
            kind: Kind::Call,
            thread: clock::thread_id(),
            start_ns,
            end_ns: clock::now_ns(),
            amount: pixels,
            encode_secs,
            source_ns,
        });
    }
}

impl Transcoder for TimedTranscoder<'_> {
    fn transcode(
        &self,
        src: &Video,
        req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        self.recorder.count_call();
        if !self.recorder.tracing() {
            return self.inner.transcode(src, req);
        }
        let t0 = clock::now_ns();
        let out = self.inner.transcode(src, req);
        let secs = out.as_ref().map_or(0.0, |o| o.timings.total());
        self.record(t0, src.total_pixels(), secs, 0);
        out
    }

    fn transcode_stream(
        &self,
        src: &mut dyn FrameSource,
        req: &TranscodeRequest,
    ) -> Result<StreamOutcome, TranscodeError> {
        self.recorder.count_call();
        if !self.recorder.tracing() {
            return self.inner.transcode_stream(src, req);
        }
        let pixels = src.resolution().pixels() * src.len() as u64;
        let mut timed = TimingSource { inner: src, ns: 0 };
        let t0 = clock::now_ns();
        let out = self.inner.transcode_stream(&mut timed, req);
        let secs = out.as_ref().map_or(0.0, |o| o.timings.total());
        self.record(t0, pixels, secs, timed.ns);
        out
    }
}

/// A `FrameSource` that sums the time its inner source spends producing
/// frames: the part of a streaming call that is `vsynth`, not `vcodec`.
struct TimingSource<'a> {
    inner: &'a mut dyn FrameSource,
    ns: u64,
}

impl FrameSource for TimingSource<'_> {
    fn resolution(&self) -> Resolution {
        self.inner.resolution()
    }

    fn fps(&self) -> f64 {
        self.inner.fps()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn next_frame(&mut self) -> Option<Frame> {
        let t0 = clock::now_ns();
        let frame = self.inner.next_frame();
        self.ns += clock::now_ns() - t0;
        frame
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The source clip of null job `index`: one 16×16 frame whose first four
/// luma bytes carry the index, which is how [`NullTranscoder`] knows which
/// canned bitstream a call is for (the trait passes no job id).
pub fn null_source(index: u32) -> Video {
    let mut frame = Frame::filled(Resolution::new(16, 16), 0, 128, 128);
    frame.y_mut().data_mut()[..4].copy_from_slice(&index.to_le_bytes());
    Video::new(vec![frame], 30.0)
}

/// The encode seconds null job `index` reports: distinct per job, so a
/// recorded call can be tied back to its job, and far below timer
/// resolution, so they weigh nothing in any sum.
pub fn null_encode_secs(index: usize) -> f64 {
    (index + 1) as f64 * 1e-9
}

/// Returns the canned bitstream of the job a call is for, doing no encode
/// work: what is left is journal, executor and dispatch cost.
pub struct NullTranscoder<'a> {
    pub payloads: &'a [Vec<u8>],
}

impl Transcoder for NullTranscoder<'_> {
    fn transcode(
        &self,
        src: &Video,
        _req: &TranscodeRequest,
    ) -> Result<TranscodeOutcome, TranscodeError> {
        let marker = src.frames().first().and_then(|f| f.y().data().get(..4));
        let index = marker.map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize);
        let Some((index, payload)) = index.and_then(|i| Some((i, self.payloads.get(i)?))) else {
            return Err(TranscodeError::BackendMismatch { engine: "null" });
        };
        let bytes = payload.clone();
        let encode_seconds = null_encode_secs(index);
        let stats = EncodeStats {
            encode_seconds,
            bitstream_bytes: bytes.len() as u64,
            frames: 1,
            ..EncodeStats::default()
        };
        Ok(TranscodeOutcome {
            output: EncodeOutput { bytes, stats, recon: src.clone(), first_pass: None },
            measurement: Measurement::try_new(1.0, 1.0, 40.0)?,
            timings: StageSeconds { submission: 0.0, transfer: 0.0, pipeline: encode_seconds },
            chosen_bps: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbench::engine::RateMode;
    use vcodec::{CodecFamily, Preset};

    fn request() -> TranscodeRequest {
        TranscodeRequest::software(
            CodecFamily::Avc,
            Preset::Medium,
            RateMode::ConstQuality { crf: 30.0 },
        )
    }

    #[test]
    fn null_transcoder_returns_the_jobs_own_payload() {
        let payloads = vec![vec![1, 2, 3], vec![9; 5000]];
        let null = NullTranscoder { payloads: &payloads };
        for (i, want) in payloads.iter().enumerate() {
            let out = null.transcode(&null_source(i as u32), &request()).expect("null call");
            assert_eq!(&out.output.bytes, want);
            assert_eq!(out.output.stats.encode_seconds, null_encode_secs(i));
            assert_eq!(out.timings.total(), null_encode_secs(i));
        }
        let missing = null.transcode(&null_source(2), &request());
        assert!(matches!(missing, Err(TranscodeError::BackendMismatch { engine: "null" })));
    }

    #[test]
    fn timed_wrapper_counts_always_and_records_only_when_tracing() {
        let payloads = vec![vec![7; 64]];
        let null = NullTranscoder { payloads: &payloads };
        for tracing in [false, true] {
            let recorder = Arc::new(Recorder::new(tracing));
            let timed = TimedTranscoder { inner: &null, recorder: Arc::clone(&recorder) };
            timed.transcode(&null_source(0), &request()).expect("call");
            // The default streaming path materializes and delegates to
            // `transcode` of the *inner* engine, so it is one more call.
            let video = null_source(0);
            let mut source = vframe::VideoSource::new(&video);
            timed.transcode_stream(&mut source, &request()).expect("stream call");
            assert_eq!(recorder.calls(), 2);
            let events = recorder.drain();
            assert_eq!(events.len(), if tracing { 2 } else { 0 });
            for e in &events {
                assert_eq!(e.kind, Kind::Call);
                assert_eq!(e.amount, 256);
                assert_eq!(e.encode_secs, null_encode_secs(0));
                assert!(e.end_ns >= e.start_ns);
            }
        }
    }
}
