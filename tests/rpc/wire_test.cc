#include "rpc/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "staticanalysis/features.h"
#include "test_strings.h"

namespace pstorm::rpc {
namespace {

RequestFrame MakeRequest(uint64_t id, Method method, std::string body) {
  RequestFrame frame;
  frame.request_id = id;
  frame.method = method;
  frame.body = std::move(body);
  return frame;
}

TEST(WireFrameTest, RequestRoundTrips) {
  const std::string binary_body("payload bytes \x00\xff\x01", 17);
  const std::string encoded =
      EncodeRequestFrame(MakeRequest(42, Method::kSubmitJob, binary_body));
  ParsedMessage msg;
  ASSERT_EQ(ParseFrame(encoded, kDefaultMaxFrameBytes, &msg),
            FrameParseResult::kOk);
  EXPECT_EQ(msg.kind, MessageKind::kRequest);
  EXPECT_EQ(msg.request.request_id, 42u);
  EXPECT_EQ(msg.request.method, Method::kSubmitJob);
  EXPECT_EQ(msg.request.body, binary_body);
  EXPECT_EQ(msg.frame_size, encoded.size());
}

TEST(WireFrameTest, ResponseRoundTripsWithStatus) {
  ResponseFrame response = ErrorResponse(
      7, Status::ResourceExhausted("server at capacity"));
  response.body = "partial";
  const std::string encoded = EncodeResponseFrame(response);
  ParsedMessage msg;
  ASSERT_EQ(ParseFrame(encoded, kDefaultMaxFrameBytes, &msg),
            FrameParseResult::kOk);
  EXPECT_EQ(msg.kind, MessageKind::kResponse);
  EXPECT_EQ(msg.response.request_id, 7u);
  const Status status = ResponseStatus(msg.response);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.message(), "server at capacity");
  EXPECT_EQ(msg.response.body, "partial");
}

TEST(WireFrameTest, BackToBackFramesParseInOrder) {
  std::string stream;
  for (uint64_t id = 1; id <= 5; ++id) {
    stream += EncodeRequestFrame(
        MakeRequest(id, Method::kEcho, Numbered("b", id)));
  }
  for (uint64_t id = 1; id <= 5; ++id) {
    ParsedMessage msg;
    ASSERT_EQ(ParseFrame(stream, kDefaultMaxFrameBytes, &msg),
              FrameParseResult::kOk);
    EXPECT_EQ(msg.request.request_id, id);
    stream.erase(0, msg.frame_size);
  }
  EXPECT_TRUE(stream.empty());
}

// ---- Malformed input: every prefix, flip, and lie must parse cleanly ----

TEST(WireFrameTest, EveryTruncationAsksForMoreNeverCrashes) {
  // A truncated length prefix, header, or payload is just an incomplete
  // stream: kNeedMore, so the connection keeps reading.
  const std::string frame = EncodeRequestFrame(
      MakeRequest(9, Method::kPutProfile, std::string(300, 'p')));
  for (size_t n = 0; n < frame.size(); ++n) {
    ParsedMessage msg;
    EXPECT_EQ(ParseFrame(frame.substr(0, n), kDefaultMaxFrameBytes, &msg),
              FrameParseResult::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(WireFrameTest, EverySingleByteFlipIsRejectedNotTrusted) {
  const std::string frame = EncodeRequestFrame(
      MakeRequest(1234, Method::kSubmitJob, std::string(64, 's')));
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string bent = frame;
    bent[i] = static_cast<char>(bent[i] ^ 0xff);
    ParsedMessage msg;
    const FrameParseResult result =
        ParseFrame(bent, kDefaultMaxFrameBytes, &msg);
    // A flip in the length prefix may turn the frame oversized (kBad) or
    // "longer than the bytes present" (kNeedMore); a flip anywhere else
    // fails the checksum. What it must never be is kOk-with-altered-bytes.
    if (result == FrameParseResult::kOk) {
      EXPECT_EQ(msg.request.request_id, 1234u) << "flip at " << i;
      EXPECT_EQ(msg.request.body, std::string(64, 's')) << "flip at " << i;
      ADD_FAILURE() << "flip at byte " << i << " went undetected";
    }
  }
}

TEST(WireFrameTest, OversizedLengthPrefixRejectedBeforeBuffering) {
  // 8 header bytes claiming a huge payload: rejected from the prefix
  // alone, without waiting for (or allocating) the declared bytes.
  std::string header;
  PutFixed32(&header, 64u << 20);
  PutFixed32(&header, 0);
  ParsedMessage msg;
  EXPECT_EQ(ParseFrame(header, kDefaultMaxFrameBytes, &msg),
            FrameParseResult::kBad);
  EXPECT_FALSE(msg.respond_before_close);  // Stream untrustworthy.
  EXPECT_NE(msg.error.find("oversized"), std::string::npos);
}

TEST(WireFrameTest, BadChecksumClosesSilently) {
  std::string frame =
      EncodeRequestFrame(MakeRequest(1, Method::kEcho, "body"));
  frame[4] = static_cast<char>(frame[4] ^ 0x01);  // Corrupt the checksum.
  ParsedMessage msg;
  EXPECT_EQ(ParseFrame(frame, kDefaultMaxFrameBytes, &msg),
            FrameParseResult::kBad);
  EXPECT_FALSE(msg.respond_before_close);
}

TEST(WireFrameTest, UnsupportedVersionGetsAFarewellResponse) {
  // Re-seal a frame whose payload claims version 9: the checksum passes,
  // so the server owes the peer one error response before closing.
  const std::string good =
      EncodeRequestFrame(MakeRequest(1, Method::kEcho, "x"));
  std::string payload = good.substr(kFrameHeaderSize);
  payload[0] = 9;
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, static_cast<uint32_t>(Fnv1a64(payload)));
  frame += payload;
  ParsedMessage msg;
  EXPECT_EQ(ParseFrame(frame, kDefaultMaxFrameBytes, &msg),
            FrameParseResult::kBad);
  EXPECT_TRUE(msg.respond_before_close);
  EXPECT_NE(msg.error.find("version"), std::string::npos);
}

TEST(WireFrameTest, IntactFrameWithGarbagePayloadEarnsErrorResponse) {
  // Correctly framed and checksummed random payloads: kBad with
  // respond_before_close (the frame is intact, the content is not), or in
  // the rare case the bytes happen to parse, kOk. Never a crash.
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string payload;
    const size_t n = rng.NextUint64(40);
    for (size_t i = 0; i < n; ++i) {
      payload.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
    PutFixed32(&frame, static_cast<uint32_t>(Fnv1a64(payload)));
    frame += payload;
    ParsedMessage msg;
    const FrameParseResult result =
        ParseFrame(frame, kDefaultMaxFrameBytes, &msg);
    if (result == FrameParseResult::kBad) {
      EXPECT_FALSE(msg.error.empty());
    } else {
      EXPECT_EQ(result, FrameParseResult::kOk) << "trial " << trial;
    }
  }
}

TEST(WireFrameTest, TrailingBytesAfterBodyAreRejected) {
  const std::string good =
      EncodeRequestFrame(MakeRequest(3, Method::kEcho, "abc"));
  std::string payload = good.substr(kFrameHeaderSize);
  payload += "extra";
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, static_cast<uint32_t>(Fnv1a64(payload)));
  frame += payload;
  ParsedMessage msg;
  EXPECT_EQ(ParseFrame(frame, kDefaultMaxFrameBytes, &msg),
            FrameParseResult::kBad);
  EXPECT_TRUE(msg.respond_before_close);
  EXPECT_EQ(msg.bad_request_id, 3u);  // Parsed far enough to echo the id.
}

// ---- Method bodies -------------------------------------------------------

TEST(WireBodyTest, SubmitJobRequestRoundTripsBitIdentically) {
  SubmitJobRequest request;
  request.tenant = "nlp-team";
  request.job_name = "word-cooccurrence-pairs-w3";
  request.job_param = 3.0000000000000004;  // Not representable loosely.
  request.data = jobs::FindDataSet(jobs::kWikipedia35Gb).value();
  request.submitted.io_sort_mb = 187.30000000000001;
  request.submitted.num_reduce_tasks = 27;
  request.submitted.use_combiner = false;
  request.seed = ~0ull;

  const auto decoded =
      DecodeSubmitJobRequest(EncodeSubmitJobRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->tenant, request.tenant);
  EXPECT_EQ(decoded->job_name, request.job_name);
  EXPECT_EQ(decoded->job_param, request.job_param);  // Exact, not near.
  EXPECT_EQ(decoded->data.name, request.data.name);
  EXPECT_EQ(decoded->data.size_bytes, request.data.size_bytes);
  EXPECT_EQ(decoded->data.avg_record_bytes, request.data.avg_record_bytes);
  EXPECT_EQ(decoded->submitted, request.submitted);
  EXPECT_EQ(decoded->seed, request.seed);
}

TEST(WireBodyTest, SubmitJobResponseRoundTripsBitIdentically) {
  SubmitJobResponse response;
  response.matched = true;
  response.composite = true;
  response.stored_new_profile = false;
  response.profile_source = "word-count@random-text-1gb+sort@teragen-1gb";
  response.config_used.io_sort_mb = 412.09999999999997;
  response.runtime_s = 71.400000000000006;
  response.sample_runtime_s = 2.2000000000000002;
  response.predicted_runtime_s = 68.900000000000006;
  response.shard = 3;

  const auto decoded =
      DecodeSubmitJobResponse(EncodeSubmitJobResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->matched, response.matched);
  EXPECT_EQ(decoded->composite, response.composite);
  EXPECT_EQ(decoded->profile_source, response.profile_source);
  EXPECT_EQ(decoded->config_used, response.config_used);
  EXPECT_EQ(decoded->runtime_s, response.runtime_s);
  EXPECT_EQ(decoded->sample_runtime_s, response.sample_runtime_s);
  EXPECT_EQ(decoded->predicted_runtime_s, response.predicted_runtime_s);
  EXPECT_EQ(decoded->shard, response.shard);
  // The wire layer's core guarantee: re-encoding reproduces the exact
  // bytes, so outcomes can be compared serialized.
  EXPECT_EQ(EncodeSubmitJobResponse(*decoded),
            EncodeSubmitJobResponse(response));
}

TEST(WireBodyTest, PutProfileRequestCarriesStaticsAndCfgs) {
  const jobs::BenchmarkJob job = jobs::WordCount();
  PutProfileRequest request;
  request.tenant = "analytics";
  request.job_key = "word-count@random-text-1gb";
  request.profile_text = "serialized-profile-text";
  request.statics = staticanalysis::ExtractStaticFeatures(job.program);
  request.statics.map_calls = {"emit", "tokenize"};

  const auto decoded =
      DecodePutProfileRequest(EncodePutProfileRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->job_key, request.job_key);
  EXPECT_EQ(decoded->statics.mapper, request.statics.mapper);
  EXPECT_EQ(decoded->statics.combiner, request.statics.combiner);
  EXPECT_EQ(decoded->statics.map_calls, request.statics.map_calls);
  EXPECT_EQ(staticanalysis::SerializeCfg(decoded->statics.map_cfg),
            staticanalysis::SerializeCfg(request.statics.map_cfg));
  EXPECT_EQ(staticanalysis::SerializeCfg(decoded->statics.reduce_cfg),
            staticanalysis::SerializeCfg(request.statics.reduce_cfg));
}

TEST(WireBodyTest, GetStatsResponseRoundTrips) {
  GetStatsResponse stats;
  stats.shards = {{0, "", 12, 100}, {1, "8000000000000000", 7, 55}};
  stats.requests_served = 155;
  stats.backpressure_rejections = 9;
  stats.quota_rejections = 3;
  const auto decoded = DecodeGetStatsResponse(EncodeGetStatsResponse(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->shards.size(), 2u);
  EXPECT_EQ(decoded->shards[1].start_key, "8000000000000000");
  EXPECT_EQ(decoded->shards[1].num_profiles, 7u);
  EXPECT_EQ(decoded->requests_served, 155u);
  EXPECT_EQ(decoded->backpressure_rejections, 9u);
  EXPECT_EQ(decoded->quota_rejections, 3u);
}

TEST(WireBodyTest, TruncatedBodiesErrorInsteadOfMisreading) {
  SubmitJobRequest request;
  request.tenant = "t";
  request.job_name = "word-count";
  request.data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  const std::string body = EncodeSubmitJobRequest(request);
  for (size_t n = 0; n < body.size(); ++n) {
    const auto decoded = DecodeSubmitJobRequest(body.substr(0, n));
    EXPECT_FALSE(decoded.ok()) << "prefix length " << n;
  }
}

TEST(WireBodyTest, HostileStringListCountDoesNotReserveUnbounded) {
  // A PutProfile body whose trailing string-list claims 2^31 entries must
  // fail fast, not reserve gigabytes.
  const jobs::BenchmarkJob job = jobs::Sort();
  PutProfileRequest request;
  request.tenant = "t";
  request.job_key = "k";
  request.statics = staticanalysis::ExtractStaticFeatures(job.program);
  std::string body = EncodePutProfileRequest(request);
  // The encoder ends with reduce_calls = an empty list (one varint 0 byte);
  // replace it with a huge count.
  body.pop_back();
  PutVarint32(&body, 0x7fffffffu);
  const auto decoded = DecodePutProfileRequest(body);
  EXPECT_FALSE(decoded.ok());
}

}  // namespace
}  // namespace pstorm::rpc
