#include "snapshot/snapshot.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace maritime::snapshot {
namespace {

/// The 20-byte container header framing `payload`.
std::string EncodeFileHeader(std::string_view payload) {
  Writer w;
  w.U32(kFileMagic);
  w.U32(kFileVersion);
  w.U64(payload.size());
  w.U32(Crc32(payload));
  return w.Take();
}

}  // namespace

std::string EncodeSnapshotFile(std::string_view payload) {
  std::string out = EncodeFileHeader(payload);
  out.append(payload.data(), payload.size());
  return out;
}

Result<std::string_view> DecodeSnapshotFile(std::string_view file) {
  Reader r(file);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&payload_size) ||
      !r.U32(&crc)) {
    return Status::Corruption("snapshot: truncated file header");
  }
  if (magic != kFileMagic) {
    return Status::InvalidArgument("snapshot: bad magic (not a snapshot file)");
  }
  if (version > kFileVersion) {
    return VersionError("file container");
  }
  if (payload_size != r.remaining()) {
    return Status::Corruption(
        payload_size > r.remaining()
            ? "snapshot: truncated payload"
            : "snapshot: trailing bytes after payload");
  }
  const std::string_view payload = file.substr(kFileHeaderSize);
  if (Crc32(payload) != crc) {
    return Status::Corruption("snapshot: payload checksum mismatch");
  }
  return payload;
}

Status WriteSnapshotFile(const std::string& path, std::string_view payload) {
  // Write a sibling file and rename it over `path`: a crash mid-write leaves
  // the previous checkpoint intact instead of a torn file.
  const std::string tmp = path + ".tmp";
  std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IoError("snapshot: cannot open " + path);
  const std::string header = EncodeFileHeader(payload);
  f.write(header.data(), static_cast<std::streamsize>(header.size()));
  f.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  f.close();
  if (!f) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot: write failed for " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot: cannot replace " + path);
  }
  return Status::OK();
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (!f || ec) return Status::IoError("snapshot: cannot open " + path);
  std::string image(size, '\0');
  if (!f.read(image.data(), static_cast<std::streamsize>(size))) {
    return Status::IoError("snapshot: read failed for " + path);
  }
  if (const Result<std::string_view> payload = DecodeSnapshotFile(image);
      !payload.ok()) {
    return payload.status();
  }
  image.erase(0, kFileHeaderSize);  // the payload, in place
  return image;
}

}  // namespace maritime::snapshot
