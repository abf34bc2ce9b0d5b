#include "bagcpd/serialize/wire.h"

#include <cstring>

#include "bagcpd/common/check.h"

namespace bagcpd {
namespace serialize {

namespace {

const std::uint32_t* Crc32Table() {
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t crc) {
  const std::uint32_t* table = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void WireWriter::BeginBlob(BlobKind kind) {
  blob_base_ = out_->size();
  out_->append(kBlobMagic, sizeof(kBlobMagic));
  PutU32(kFormatVersion);
  PutU32(static_cast<std::uint32_t>(kind));
}

void WireWriter::EndBlob() {
  BAGCPD_CHECK_MSG(section_len_at_ == std::string::npos,
                   "EndBlob with an open section");
  const std::uint32_t crc =
      Crc32(out_->data() + blob_base_, out_->size() - blob_base_);
  PutU32(crc);
}

void WireWriter::BeginSection(std::uint32_t tag) {
  BAGCPD_CHECK_MSG(section_len_at_ == std::string::npos,
                   "sections do not nest");
  PutU32(tag);
  section_len_at_ = out_->size();
  PutU64(0);  // Patched by EndSection.
}

void WireWriter::EndSection() {
  BAGCPD_CHECK_MSG(section_len_at_ != std::string::npos,
                   "EndSection without BeginSection");
  const std::uint64_t len = out_->size() - section_len_at_ - 8;
  for (int i = 0; i < 8; ++i) {
    (*out_)[section_len_at_ + i] =
        static_cast<char>((len >> (8 * i)) & 0xFFu);
  }
  section_len_at_ = std::string::npos;
}

void WireWriter::PutU8(std::uint8_t v) {
  out_->push_back(static_cast<char>(v));
}

void WireWriter::PutU32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void WireWriter::PutU64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void WireWriter::PutF64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutF64Array(const double* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) PutF64(data[i]);
}

void WireWriter::PutBytes(const void* data, std::size_t n) {
  out_->append(static_cast<const char*>(data), n);
}

void WireWriter::PutString(std::string_view s) {
  PutU64(s.size());
  out_->append(s.data(), s.size());
}

Status WireReader::ReadU8(std::uint8_t* v) {
  if (remaining() < 1) return Status::IoError("truncated blob: expected u8");
  *v = static_cast<std::uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status WireReader::ReadU32(std::uint32_t* v) {
  if (remaining() < 4) return Status::IoError("truncated blob: expected u32");
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status WireReader::ReadU64(std::uint64_t* v) {
  if (remaining() < 8) return Status::IoError("truncated blob: expected u64");
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status WireReader::ReadF64(double* v) {
  std::uint64_t bits = 0;
  BAGCPD_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status WireReader::ReadF64Array(double* out, std::size_t n) {
  if (n > remaining() / 8) {
    return Status::IoError("truncated blob: expected f64 array of " +
                           std::to_string(n));
  }
  for (std::size_t i = 0; i < n; ++i) {
    BAGCPD_RETURN_NOT_OK(ReadF64(out + i));
  }
  return Status::OK();
}

Status WireReader::ReadBytes(std::size_t n, std::string_view* out) {
  if (remaining() < n) {
    return Status::IoError("truncated blob: expected " + std::to_string(n) +
                           " bytes, have " + std::to_string(remaining()));
  }
  *out = data_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status WireReader::ReadString(std::string_view* out) {
  std::uint64_t len = 0;
  BAGCPD_RETURN_NOT_OK(ReadU64(&len));
  if (len > remaining()) {
    return Status::IoError("truncated blob: string length " +
                           std::to_string(len) + " exceeds remaining " +
                           std::to_string(remaining()));
  }
  return ReadBytes(static_cast<std::size_t>(len), out);
}

Status WireReader::NextSection(std::uint32_t* tag, std::string_view* payload) {
  BAGCPD_RETURN_NOT_OK(ReadU32(tag));
  std::uint64_t len = 0;
  BAGCPD_RETURN_NOT_OK(ReadU64(&len));
  if (len > remaining()) {
    return Status::IoError("truncated blob: section " + std::to_string(*tag) +
                           " declares " + std::to_string(len) +
                           " bytes, only " + std::to_string(remaining()) +
                           " remain");
  }
  return ReadBytes(static_cast<std::size_t>(len), payload);
}

namespace {

// Header = magic + version + kind; footer = CRC.
constexpr std::size_t kHeaderBytes = sizeof(kBlobMagic) + 4 + 4;
constexpr std::size_t kFooterBytes = 4;

Status CheckHeader(std::string_view blob, std::uint32_t* kind) {
  if (blob.size() < kHeaderBytes + kFooterBytes) {
    return Status::IoError("truncated blob: " + std::to_string(blob.size()) +
                           " bytes is smaller than the minimal container");
  }
  if (std::memcmp(blob.data(), kBlobMagic, sizeof(kBlobMagic)) != 0) {
    return Status::IoError("bad magic: not a BAGCPDCK checkpoint blob");
  }
  WireReader header(blob.substr(sizeof(kBlobMagic), 8));
  std::uint32_t version = 0;
  BAGCPD_RETURN_NOT_OK(header.ReadU32(&version));
  BAGCPD_RETURN_NOT_OK(header.ReadU32(kind));
  if (version != kFormatVersion) {
    return Status::NotImplemented(
        "checkpoint format version " + std::to_string(version) +
        " is not supported by this build (expected " +
        std::to_string(kFormatVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

Result<WireReader> OpenBlob(std::string_view blob, BlobKind expected_kind) {
  std::uint32_t kind = 0;
  BAGCPD_RETURN_NOT_OK(CheckHeader(blob, &kind));
  const std::size_t body = blob.size() - kFooterBytes;
  WireReader footer(blob.substr(body));
  std::uint32_t stored_crc = 0;
  BAGCPD_RETURN_NOT_OK(footer.ReadU32(&stored_crc));
  const std::uint32_t actual_crc = Crc32(blob.data(), body);
  if (stored_crc != actual_crc) {
    return Status::IoError("checksum mismatch: blob is corrupt");
  }
  if (kind != static_cast<std::uint32_t>(expected_kind)) {
    return Status::Invalid("blob kind " + std::to_string(kind) +
                           " where kind " +
                           std::to_string(
                               static_cast<std::uint32_t>(expected_kind)) +
                           " was expected");
  }
  return WireReader(blob.substr(kHeaderBytes, body - kHeaderBytes));
}

Result<BlobKind> PeekBlobKind(std::string_view blob) {
  std::uint32_t kind = 0;
  BAGCPD_RETURN_NOT_OK(CheckHeader(blob, &kind));
  switch (static_cast<BlobKind>(kind)) {
    case BlobKind::kDetector:
    case BlobKind::kEngineStream:
    case BlobKind::kEngineCheckpoint:
      return static_cast<BlobKind>(kind);
  }
  return Status::Invalid("unknown blob kind " + std::to_string(kind));
}

}  // namespace serialize
}  // namespace bagcpd
