//! Pipelined encrypted transfers — the Sec. VIII runtime-library
//! optimization (Tan et al. / PipeLLM class): split a CC transfer into
//! chunks so chunk *i+1*'s CPU encryption overlaps chunk *i*'s DMA,
//! turning the serial `crypto → stage → DMA` composition into a pipeline
//! bounded by its slowest stage.

use hcc_crypto::CryptoAlgorithm;
use hcc_gpu::DevicePtr;
use hcc_trace::{EventKind, HypercallReason};
use hcc_types::{ByteSize, CcMode, CopyKind, SimDuration};

use crate::context::{CudaContext, Result, RuntimeError};
use crate::handles::HostPtr;

/// Outcome of one pipelined transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedCopy {
    /// Total blocking time of the call.
    pub elapsed: SimDuration,
    /// Chunks the transfer was split into.
    pub chunks: u32,
    /// Time the DMA engine was kept busy (for utilization studies).
    pub dma_busy: SimDuration,
}

impl CudaContext {
    /// Host→device copy that pipelines CPU encryption against DMA in
    /// `chunk`-sized pieces (CC mode). In base mode this is equivalent to
    /// [`CudaContext::memcpy_h2d`] — there is no crypto stage to overlap.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] for unknown pointers, oversized copies,
    /// or a zero chunk size.
    pub fn memcpy_h2d_pipelined(
        &mut self,
        dst: DevicePtr,
        src: HostPtr,
        bytes: ByteSize,
        chunk: ByteSize,
    ) -> Result<PipelinedCopy> {
        if chunk.is_zero() {
            return Err(RuntimeError::CopyTooLarge {
                requested: ByteSize::ZERO,
                available: bytes,
            });
        }
        if self.cc_mode() == CcMode::Off {
            let elapsed = self.memcpy_h2d(dst, src, bytes)?;
            return Ok(PipelinedCopy {
                elapsed,
                chunks: 1,
                dma_busy: elapsed,
            });
        }
        self.check_copy_public(bytes, src, dst)?;
        let start = self.now();
        let p = self.config().calib().pcie.clone();
        let workers = self.config().crypto_workers;

        // Per-chunk stage times.
        let n_chunks = bytes.as_u64().div_ceil(chunk.as_u64()) as u32;
        let mut dma_busy = SimDuration::ZERO;
        // One DMA-map hypercall pair up front.
        for _ in 0..2 {
            let t0 = self.now();
            let cost = self.charge_hypercall(HypercallReason::DmaMap);
            self.push_event_public(
                EventKind::Hypercall {
                    reason: HypercallReason::DmaMap,
                },
                t0,
                t0 + cost,
            );
        }
        self.advance_public(p.cc_transfer_setup);

        // Pipeline: encryption occupies the crypto engine per chunk; the
        // DMA for chunk i starts when its encryption is done AND the
        // engine is free from chunk i-1. The blocking call returns when
        // the last chunk's DMA (incl. GPU-side decrypt) completes.
        let mut remaining = bytes;
        let mut last_dma_end = self.now();
        while !remaining.is_zero() {
            let this = remaining.min(chunk);
            let crypto_time =
                self.crypto_model()
                    .time_for_parallel(CryptoAlgorithm::AesGcm128, this, workers);
            let crypto_slot = self.schedule_crypto(self.now(), crypto_time);
            self.push_event_public(
                EventKind::Crypto {
                    bytes: this,
                    encrypt: true,
                },
                crypto_slot.start,
                crypto_slot.end,
            );
            let staged = crypto_slot.end + p.bounce_copy.time_for(this);
            let dma_time = p.pinned_h2d.time_for(this) + p.gpu_crypto.time_for(this);
            let sched = self.submit_copy_public(staged, CopyKind::H2D, dma_time);
            self.note_copy_bytes_public(CopyKind::H2D, this);
            dma_busy += dma_time;
            last_dma_end = sched;
            remaining = remaining.saturating_sub(this);
        }
        self.set_clock_public(last_dma_end.max(self.now()));
        let elapsed = self.now() - start;
        self.push_event_public(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes,
                mem: hcc_types::HostMemKind::Pageable,
                managed: false,
            },
            start,
            self.now(),
        );
        Ok(PipelinedCopy {
            elapsed,
            chunks: n_chunks,
            dma_busy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use hcc_types::HostMemKind;

    fn ctx(cc: CcMode) -> CudaContext {
        CudaContext::new(SimConfig::new(cc))
    }

    fn alloc_pair(c: &mut CudaContext, size: ByteSize) -> (DevicePtr, HostPtr) {
        let h = c.malloc_host(size, HostMemKind::Pageable).expect("host");
        let d = c.malloc_device(size).expect("device");
        (d, h)
    }

    #[test]
    fn pipelining_beats_serial_cc_copy() {
        let size = ByteSize::mib(512);
        let serial = {
            let mut c = ctx(CcMode::On);
            let (d, h) = alloc_pair(&mut c, size);
            c.memcpy_h2d(d, h, size).expect("copy")
        };
        let pipelined = {
            let mut c = ctx(CcMode::On);
            let (d, h) = alloc_pair(&mut c, size);
            c.memcpy_h2d_pipelined(d, h, size, ByteSize::mib(8))
                .expect("pipelined copy")
        };
        assert!(pipelined.chunks >= 64);
        // With crypto as the bottleneck, pipelined rate approaches the
        // 3.36 GB/s crypto ceiling instead of the ~3.0 serial composition.
        let serial_gbs = size.as_gb_f64() / serial.as_secs_f64();
        let pipe_gbs = size.as_gb_f64() / pipelined.elapsed.as_secs_f64();
        assert!(
            pipe_gbs > serial_gbs * 1.05,
            "pipelined {pipe_gbs:.2} vs serial {serial_gbs:.2} GB/s"
        );
        assert!(
            pipe_gbs < 3.4,
            "cannot beat the crypto ceiling: {pipe_gbs:.2}"
        );
    }

    #[test]
    fn base_mode_falls_back_to_plain_copy() {
        let size = ByteSize::mib(64);
        let mut c = ctx(CcMode::Off);
        let (d, h) = alloc_pair(&mut c, size);
        let r = c
            .memcpy_h2d_pipelined(d, h, size, ByteSize::mib(4))
            .expect("copy");
        assert_eq!(r.chunks, 1);
    }

    #[test]
    fn tiny_chunks_pay_per_chunk_overheads() {
        let size = ByteSize::mib(64);
        let run = |chunk: ByteSize| {
            let mut c = ctx(CcMode::On);
            let (d, h) = alloc_pair(&mut c, size);
            c.memcpy_h2d_pipelined(d, h, size, chunk)
                .expect("copy")
                .elapsed
        };
        // 64 KiB chunks pay 1024 crypto setups; 8 MiB chunks pay 8.
        assert!(run(ByteSize::kib(64)) > run(ByteSize::mib(8)));
    }

    #[test]
    fn zero_chunk_rejected() {
        let mut c = ctx(CcMode::On);
        let (d, h) = alloc_pair(&mut c, ByteSize::mib(1));
        assert!(c
            .memcpy_h2d_pipelined(d, h, ByteSize::mib(1), ByteSize::ZERO)
            .is_err());
    }

    #[test]
    fn combined_with_workers_approaches_dma_limit() {
        // Pipelining + 8 crypto workers: the bottleneck moves off the CPU.
        let size = ByteSize::mib(512);
        let mut c = CudaContext::new(SimConfig::new(CcMode::On).with_crypto_workers(8));
        let (d, h) = alloc_pair(&mut c, size);
        let r = c
            .memcpy_h2d_pipelined(d, h, size, ByteSize::mib(8))
            .expect("copy");
        let gbs = size.as_gb_f64() / r.elapsed.as_secs_f64();
        assert!(gbs > 15.0, "pipelined+workers {gbs:.2} GB/s");
    }
}
