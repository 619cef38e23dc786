//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * streamlet pooling on vs off (instance churn cost, §3.3.4);
//! * sync vs async channels (rendezvous vs buffered post/fetch);
//! * codec kernels: LZSS (the work the TextCompressor adds) and the web
//!   accelerator's image path (gif2jpeg, down-sampling);
//! * event multicast fanout (Event Manager delivery cost, §6.4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mobigate::core::events::{ContextEvent, EventManager, EventSubscriber};
use mobigate::core::pool::{MessagePool, PayloadMode};
use mobigate::core::queue::{FetchResult, MessageQueue, QueueConfig};
use mobigate::core::{EventCategory, EventKind, StreamletDirectory, StreamletPool};
use mobigate::mime::MimeMessage;
use mobigate::streamlets::codec::lzss;
use mobigate::streamlets::codec::raster::{downsample, Encoding, Image};
use mobigate_streamlets::workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn bench_pooling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pooling");
    let directory = StreamletDirectory::new();
    mobigate::streamlets::register_builtins(&directory);

    let pooled = StreamletPool::new(64);
    let disabled = StreamletPool::disabled();
    group.bench_function("checkout_checkin_pooled", |b| {
        b.iter(|| {
            let inst = pooled
                .checkout("builtin/text_compress", &directory)
                .unwrap();
            pooled.checkin("builtin/text_compress", inst);
        });
    });
    group.bench_function("checkout_checkin_disabled", |b| {
        b.iter(|| {
            let inst = disabled
                .checkout("builtin/text_compress", &directory)
                .unwrap();
            disabled.checkin("builtin/text_compress", inst);
        });
    });
    group.finish();
}

fn bench_channels(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_channels");
    let pool = Arc::new(MessagePool::new());
    let async_q = MessageQueue::new(
        QueueConfig {
            capacity_bytes: 64 << 20,
            ..Default::default()
        },
        pool.clone(),
    );
    group.throughput(Throughput::Elements(1));
    group.bench_function("async_post_fetch", |b| {
        let msg = MimeMessage::text("payload");
        b.iter(|| {
            async_q.post(pool.wrap(msg.clone(), PayloadMode::Reference, 1));
            match async_q.try_fetch() {
                FetchResult::Msg(p) => drop(pool.resolve(p)),
                other => panic!("{other:?}"),
            }
        });
    });

    // Sync rendezvous needs a peer thread: measure a ping through a
    // rendezvous channel serviced by a consumer thread.
    use mobigate::mcl::ast::{ChannelCategory, ChannelKind};
    let sync_q = MessageQueue::new(
        QueueConfig {
            kind: ChannelKind::Sync,
            category: ChannelCategory::S,
            full_wait: Duration::from_secs(5),
            ..Default::default()
        },
        pool.clone(),
    );
    let consumer_q = sync_q.clone();
    let consumer_pool = pool.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop2 = stop.clone();
    let consumer = std::thread::spawn(move || {
        while !stop2.load(std::sync::atomic::Ordering::Acquire) {
            if let FetchResult::Msg(p) = consumer_q.fetch(Duration::from_millis(20)) {
                drop(consumer_pool.resolve(p));
            }
        }
    });
    group.bench_function("sync_rendezvous_post", |b| {
        let msg = MimeMessage::text("payload");
        b.iter(|| sync_q.post(pool.wrap(msg.clone(), PayloadMode::Reference, 1)));
    });
    stop.store(true, std::sync::atomic::Ordering::Release);
    consumer.join().unwrap();
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_codec");
    let mut rng = StdRng::seed_from_u64(17);
    for size_kb in [4usize, 8, 64] {
        let text = workload::gen_text(&mut rng, size_kb * 1024);
        let compressed = lzss::compress(&text);
        group.throughput(Throughput::Bytes((size_kb * 1024) as u64));
        group.bench_with_input(BenchmarkId::new("compress", size_kb), &size_kb, |b, _| {
            b.iter(|| lzss::compress(&text));
        });
        group.bench_with_input(BenchmarkId::new("decompress", size_kb), &size_kb, |b, _| {
            b.iter(|| lzss::decompress(&compressed).unwrap());
        });
    }
    // The web accelerator's image path on its 128×128 workload image, as
    // the `gif2jpeg` and `img_down_sample` streamlets run it.
    let gif = workload::gen_image(&mut rng, 128, Encoding::Palette);
    let gif2jpeg = || {
        let (img, _, _) = Image::decode(&gif).unwrap();
        img.encode(Encoding::Quantized, 40)
    };
    let jpeg = gif2jpeg();
    group.throughput(Throughput::Elements(1));
    group.bench_function("gif2jpeg/128", |b| b.iter(gif2jpeg));
    group.bench_function("down_sample/128", |b| {
        b.iter(|| {
            let (img, encoding, quality) = Image::decode(&jpeg).unwrap();
            downsample(&img, 2).encode(encoding, quality)
        });
    });
    // The MGRF kernels those two streamlets are made of, one entry each.
    let (rgb, _, _) = Image::decode(&gif).unwrap();
    let half = downsample(&rgb, 2);
    group.bench_function("palette_decode/128", |b| {
        b.iter(|| Image::decode(&gif).unwrap())
    });
    for (side, img) in [(128, &rgb), (64, &half)] {
        group.bench_with_input(BenchmarkId::new("quantized_encode", side), img, |b, img| {
            b.iter(|| img.encode(Encoding::Quantized, 40));
        });
    }
    group.bench_function("quantized_decode/128", |b| {
        b.iter(|| Image::decode(&jpeg).unwrap())
    });
    group.bench_function("downsample/128", |b| b.iter(|| downsample(&rgb, 2)));
    group.finish();
}

struct NullSubscriber;
impl EventSubscriber for NullSubscriber {
    fn subscriber_name(&self) -> String {
        "null".into()
    }
    fn on_event(&self, _: &ContextEvent) {}
}

fn bench_event_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_event_fanout");
    for subs in [1usize, 16, 128] {
        let mgr = EventManager::new();
        let holders: Vec<Arc<dyn EventSubscriber>> = (0..subs)
            .map(|_| Arc::new(NullSubscriber) as Arc<dyn EventSubscriber>)
            .collect();
        for h in &holders {
            mgr.subscribe(EventCategory::NetworkVariation, h);
        }
        group.throughput(Throughput::Elements(subs as u64));
        group.bench_with_input(BenchmarkId::new("multicast", subs), &subs, |b, _| {
            let evt = ContextEvent::broadcast(EventKind::LowBandwidth);
            b.iter(|| mgr.multicast(&evt));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pooling,
    bench_channels,
    bench_codec,
    bench_event_fanout
);
criterion_main!(benches);
