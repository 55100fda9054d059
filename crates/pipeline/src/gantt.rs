//! ASCII Gantt rendering of executed pipeline schedules.
//!
//! Turns a recorded pipeline trace into the schedule pictures of the
//! paper's Figs. 3–4: one row per stage, forward passes as the
//! micro-batch digit, backward passes as the digit in brackets-free
//! lowercase band (distinguished by style), idle time as dots. Useful
//! for eyeballing SSB/DDB structure and for docs.
//!
//! The one entry point, [`render_view`], consumes the obs layer's
//! [`TraceView`] (compute spans of [`Domain::Pipeline`]): a live
//! tracer's view, or
//! [`ExecutionReport::trace_view`](crate::executor::ExecutionReport::trace_view)
//! for a report run without one.
//!
//! [`Domain::Pipeline`]: ecofl_obs::Domain::Pipeline

use ecofl_obs::{SpanKind, TraceView};

/// Renders one sync-round of a pipeline trace as an ASCII Gantt chart.
///
/// `width` is the number of character columns the round's duration maps
/// onto. Forward tasks paint the micro-batch digit (mod 10); full
/// backwards and the activation-gradient halves of split backwards paint
/// lowercase `a–j`; the deferred weight-gradient halves paint uppercase
/// `A–J`; idle time is `·`.
///
/// Returns one line per stage. With `virtual_per_device == 1` rows are
/// labeled `stage s`; above 1 (interleaved schedules) each row is labeled
/// with its physical device and chunk (`dev d.c`) so the `v` virtual
/// stages a device hosts are visually grouped.
///
/// # Panics
/// Panics if `width < 10`, or if the stage count is not divisible by
/// `virtual_per_device`.
#[must_use]
pub fn render_view(
    view: &TraceView,
    round: usize,
    width: usize,
    virtual_per_device: usize,
) -> Vec<String> {
    assert!(width >= 10, "render_view: width too small");
    assert!(virtual_per_device >= 1);
    let Some((t0, t1)) = view.round_window(round) else {
        return Vec::new();
    };
    let stages = view
        .compute_spans(round)
        .map(|s| s.entity)
        .max()
        .unwrap_or(0)
        + 1;
    let scale = width as f64 / (t1 - t0).max(1e-12);

    let mut rows = vec![vec!['·'; width]; stages];
    for span in view.compute_spans(round) {
        let a = (((span.t0 - t0) * scale) as usize).min(width - 1);
        let b = (((span.t1 - t0) * scale).ceil() as usize).clamp(a + 1, width);
        let n = (span.micro % 10) as u8;
        let cell = match span.kind {
            SpanKind::Forward => char::from(b'0' + n),
            // Weight-gradient halves render uppercase so the two split
            // phases stay distinct; full backwards and activation-gradient
            // halves render as the familiar lowercase band.
            SpanKind::BackwardWeight => char::from(b'A' + n),
            _ => char::from(b'a' + n),
        };
        for c in rows[span.entity].iter_mut().take(b).skip(a) {
            *c = cell;
        }
    }
    assert!(
        stages.is_multiple_of(virtual_per_device) || virtual_per_device == 1,
        "stage count {stages} not divisible by v={virtual_per_device}"
    );
    let phys = stages / virtual_per_device;
    rows.into_iter()
        .enumerate()
        .map(|(s, row)| {
            let bar: String = row.into_iter().collect();
            if virtual_per_device > 1 {
                // Chunk-major virtual stage j = chunk * phys + device.
                format!("dev {}.{} |{bar}|", s % phys, s / phys)
            } else {
                format!("stage {s} |{bar}|")
            }
        })
        .collect()
}

/// Renders a compact legend for [`render_view`] output.
#[must_use]
pub fn legend() -> &'static str {
    "digits = forward pass of micro-batch n, letters a–j = backward pass \
     (or its activation-gradient half) of micro-batch n, letters A–J = \
     deferred weight-gradient half, · = idle; interleaved rows are \
     labeled dev d.chunk"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{PipelineExecutor, SchedulePolicy};
    use crate::orchestrator::p_bounds;
    use crate::partition::partition_dp;
    use crate::profiler::PipelineProfile;
    use ecofl_models::efficientnet_at;
    use ecofl_obs::Tracer;
    use ecofl_simnet::{nano_h, tx2_q, Device, Link};

    fn trace() -> crate::executor::ExecutionReport {
        let model = efficientnet_at(0, 224);
        let devices = vec![
            Device::new(tx2_q()),
            Device::new(nano_h()),
            Device::new(nano_h()),
        ];
        let link = Link::mbps_100();
        let partition = partition_dp(&model, &devices, &link, 8).expect("feasible");
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 8);
        let k = p_bounds(&profile);
        PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k })
            .expect("valid")
            .run(6, 2)
            .expect("runs")
    }

    #[test]
    fn renders_one_row_per_stage() {
        let report = trace();
        let rows = render_view(&report.trace_view(), 0, 80, 1);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.starts_with("stage "));
            assert!(row.len() > 80);
        }
    }

    #[test]
    fn render_from_live_tracer_matches_the_report() {
        // The TraceView produced by an actual traced run renders the
        // same picture as the report's own spans (comm spans are ignored
        // by the renderer).
        let model = efficientnet_at(0, 224);
        let devices = vec![Device::new(tx2_q()), Device::new(nano_h())];
        let link = Link::mbps_100();
        let partition = partition_dp(&model, &devices, &link, 8).expect("feasible");
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 8);
        let k = p_bounds(&profile);
        let exec =
            PipelineExecutor::new(&profile, SchedulePolicy::OneFOneBSync { k }).expect("valid");
        let tracer = Tracer::new();
        let report = exec.run_traced(6, 1, &tracer).expect("runs");
        assert_eq!(
            render_view(&tracer.view(), 0, 90, 1),
            render_view(&report.trace_view(), 0, 90, 1)
        );
    }

    #[test]
    fn every_micro_batch_appears_forward_and_backward() {
        let report = trace();
        for stage in 0..3 {
            for micro in 0..6 {
                let spans = || {
                    report
                        .task_spans
                        .iter()
                        .filter(|s| s.round == 0 && s.entity == stage && s.micro == micro)
                };
                assert!(
                    spans().any(|s| s.kind == SpanKind::Forward),
                    "missing FP({micro}) at stage {stage}"
                );
                assert!(
                    spans().any(|s| s.kind != SpanKind::Forward),
                    "missing BP({micro}) at stage {stage}"
                );
            }
        }
    }

    #[test]
    fn spans_are_serial_per_stage() {
        let report = trace();
        for stage in 0..3 {
            let mut spans: Vec<_> = report
                .task_spans
                .iter()
                .filter(|s| s.entity == stage)
                .collect();
            spans.sort_by(|a, b| a.t0.partial_cmp(&b.t0).unwrap());
            for w in spans.windows(2) {
                assert!(
                    w[1].t0 >= w[0].t1 - 1e-9,
                    "device must execute one task at a time"
                );
            }
        }
    }

    #[test]
    fn forward_precedes_backward_per_micro_batch() {
        let report = trace();
        let find = |stage, micro, forward: bool| {
            report
                .task_spans
                .iter()
                .find(|s| {
                    s.round == 0
                        && s.entity == stage
                        && s.micro == micro
                        && (s.kind == SpanKind::Forward) == forward
                })
                .unwrap()
        };
        for stage in 0..3 {
            for micro in 0..6 {
                assert!(find(stage, micro, false).t0 >= find(stage, micro, true).t1 - 1e-9);
            }
        }
    }

    #[test]
    fn interleaved_round_matches_golden() {
        // One interleaved (v = 2) round on the 2-device mix, pinned to
        // the exact rendering: rows are labeled dev d.chunk and grouped
        // chunk-major, forwards paint digits, backwards the lowercase
        // band. A diff here means either the executor's dispatch order
        // or the renderer's layout changed — both are contract surface.
        use crate::schedule::{interleave_profile, SchedulePolicy};
        use ecofl_models::efficientnet;
        use ecofl_simnet::tx2_n;

        let model = efficientnet(0);
        let l = model.num_layers();
        let devices = vec![Device::new(tx2_n()), Device::new(nano_h())];
        let profile = PipelineProfile::new(&model, &[0, l / 2, l], &devices, &Link::mbps_100(), 4);
        let vp = interleave_profile(&profile, 2);
        let k = p_bounds(&vp);
        let report = PipelineExecutor::new(&profile, SchedulePolicy::Interleaved { k, v: 2 })
            .expect("valid")
            .run(4, 1)
            .expect("runs");
        let rows = render_view(&report.trace_view(), 0, 72, 2);
        // '.' stands in for the idle dot U+00B7.
        let golden = [
            "dev 0.0 |1233.................................aaa.....bbb...............ccc....dd|",
            "dev 1.0 |...000111223333...............aaaaaa.bbbbbb............cccccc.dddddd....|",
            "dev 0.1 |.........0.11.22.........a33....bbb...............ccc.....dd............|",
            "dev 1.1 |..............000aaaaa11bbbbbbb....222....cccccc33dddddd................|",
        ];
        for (row, want) in rows.iter().zip(&golden) {
            let want: String = want
                .char_indices()
                .map(|(i, c)| if c == '.' && i > 8 { '\u{b7}' } else { c })
                .collect();
            assert_eq!(row, &want);
        }
        assert_eq!(rows.len(), golden.len());
    }

    #[test]
    fn split_backward_halves_render_distinctly() {
        use crate::schedule::SchedulePolicy;
        let model = efficientnet_at(0, 224);
        let devices = vec![Device::new(tx2_q()), Device::new(nano_h())];
        let link = Link::mbps_100();
        let partition = partition_dp(&model, &devices, &link, 8).expect("feasible");
        let profile = PipelineProfile::new(&model, &partition.boundaries, &devices, &link, 8);
        let k = p_bounds(&profile);
        let report = PipelineExecutor::new(&profile, SchedulePolicy::ZeroBubble { k })
            .expect("valid")
            .run(4, 1)
            .expect("runs");
        let rows = render_view(&report.trace_view(), 0, 80, 1);
        let flat: String = rows.concat();
        assert!(
            flat.chars().any(|c| c.is_ascii_uppercase()),
            "weight-gradient halves must paint A-J"
        );
        assert!(
            flat.chars().any(|c| ('a'..='j').contains(&c)),
            "activation-gradient halves must paint a-j"
        );
    }

    #[test]
    fn empty_round_renders_nothing() {
        let report = trace();
        assert!(render_view(&report.trace_view(), 99, 40, 1).is_empty());
    }
}
